import concurrent.futures
import contextlib
import io
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforms.cli import main

from generators import square_matrices

TREFOIL = "q=1 rank=2\n-1 0\n1 -1\n"
UNKNOT = "q=1 rank=0\n"
SUSPENDED = "q=2 rank=2\n-1 0\n1 -1\n"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.mat"
    path.write_text(TREFOIL)
    return str(path)


@pytest.fixture()
def unknot_file(tmp_path):
    path = tmp_path / "unknot.mat"
    path.write_text(UNKNOT)
    return str(path)


class TestInvariants:
    def test_trefoil_report(self, trefoil_file, capsys):
        assert main(["invariants", trefoil_file]) == 0
        out = capsys.readouterr().out
        assert "alexander_conway" in out
        assert "t^-1 - 1 + t" in out
        assert "karl" in out and ": 1" in out
        assert "levine_congruence" in out

    def test_unknot_report(self, unknot_file, capsys):
        assert main(["invariants", unknot_file]) == 0
        out = capsys.readouterr().out
        assert "unknot" in out
        assert "all invariants trivial" in out

    def test_malformed_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("q=1 rank=2\n-1 0\nnope nope\n")
        assert main(["invariants", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TREFOIL))
        assert main(["invariants", "-"]) == 0
        assert "alexander_conway" in capsys.readouterr().out

    def test_determinism(self, trefoil_file, capsys):
        main(["invariants", trefoil_file])
        first = capsys.readouterr().out
        main(["invariants", trefoil_file])
        assert capsys.readouterr().out == first
        main(["invariants", "--format", "machine", trefoil_file])
        machine_first = capsys.readouterr().out
        main(["invariants", "--format", "machine", trefoil_file])
        assert capsys.readouterr().out == machine_first

    def test_non_spherical_input_still_reports(self, tmp_path, capsys):
        path = tmp_path / "zero.mat"
        path.write_text("q=1 rank=1\n0\n")
        assert main(["invariants", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unimodular" in out and ": no" in out
        assert "<error:" in out  # Conway normalization error text surfaced
        assert "karl" not in out

    def test_machine_format(self, trefoil_file, capsys):
        assert main(["invariants", "--format", "machine", trefoil_file]) == 0
        out = capsys.readouterr().out
        assert "alexander_conway=t^-1 - 1 + t" in out
        assert "karl=1" in out

    def test_jobs_ordered_output(self, trefoil_file, unknot_file, capsys):
        main(["invariants", trefoil_file, unknot_file])
        serial = capsys.readouterr().out
        main(["invariants", "--jobs", "2", trefoil_file, unknot_file])
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert serial.index(trefoil_file) < serial.index(unknot_file)

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("name", ["trefoil", "unknot", "e8_q2", "e8_q4", "trefoil_q3",
                                      "not_unimodular", "not_fibered", "det_a_2"])
    def test_matches_golden(self, name, fmt, capsys, monkeypatch):
        # byte-for-byte against the stored reference output; the path is
        # relative so that its "input" line is stable
        monkeypatch.chdir(GOLDEN)
        assert main(["invariants", "--format", fmt, f"invariants_{name}.mat"]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"invariants_{name}.{fmt}").read_text()

    def test_jobs_parse_error_exit_2(self, trefoil_file, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("q=1 rank=1\nx\n")
        assert main(["invariants", "--jobs", "2", trefoil_file, str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["invariants", "handles"])
    def test_jobs_capped_at_file_count(self, command, trefoil_file, unknot_file, capsys,
                                       monkeypatch):
        # a fork pool starts all its workers at the first submit, so the
        # pool is replaced by one that records its size and runs inline
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        paths = [trefoil_file, unknot_file, trefoil_file]
        assert main([command, *paths]) == 0
        sequential = capsys.readouterr().out
        assert main([command, "--jobs", "4096", *paths]) == 0
        assert capsys.readouterr().out == sequential
        assert main([command, "--jobs", "2", *paths]) == 0
        assert capsys.readouterr().out == sequential
        assert sizes == [3, 2]


class TestBrieskorn:
    def test_e8_germ(self, capsys):
        assert main(["brieskorn", "2", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "milnor_number" in out and ": 8" in out
        assert "signature" in out

    def test_trefoil_germ(self, capsys):
        assert main(["brieskorn", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "karl" in out
        assert "t^-1 - 1 + t" in out

    @pytest.mark.parametrize("exponents", ["2 3 5", "5 3 2 2 2", "3 2 2 2 2 2"])
    def test_machine_output_matches_golden(self, exponents, capsys):
        # byte-for-byte against the stored reference output
        assert main(["brieskorn", *exponents.split(), "--format", "machine"]) == 0
        golden = GOLDEN / f"brieskorn_{exponents.replace(' ', '_')}.txt"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("exponents", ["2 2", "5"])
    def test_non_spherical_germ_matches_golden(self, exponents, fmt, capsys):
        assert main(["brieskorn", *exponents.split(), "--format", fmt]) == 0
        golden = GOLDEN / f"brieskorn_{exponents.replace(' ', '_')}.{fmt}"
        assert capsys.readouterr().out == golden.read_text()

    def test_exponent_below_two_rejected(self, capsys):
        assert main(["brieskorn", "1", "3"]) == 2
        assert "exponents" in capsys.readouterr().err

    def test_emit_matrix_round_trip(self, tmp_path, capsys):
        from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
        from knotforms.matrixfile import parse_matrix_file, serialize_matrix_file

        out_path = tmp_path / "emitted.mat"
        assert main(["brieskorn", "2", "3", "--emit-matrix", str(out_path)]) == 0
        capsys.readouterr()
        reparsed = parse_matrix_file(out_path.read_text())
        assert reparsed.matrix == brieskorn_seifert(BrieskornGerm((2, 3))).matrix
        assert serialize_matrix_file(reparsed) == out_path.read_text()
        assert main(["invariants", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "t^-1 - 1 + t" in out

    def test_emit_matrix_refused_for_one_variable_germ(self, tmp_path, capsys):
        # matrix files require q >= 1 and the germ (5) has q = 0: rewriting
        # q would change the intersection form, so nothing is written
        out_path = tmp_path / "emitted.mat"
        assert main(["brieskorn", "5", "--emit-matrix", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert "q >= 1" in captured.err
        assert captured.out == ""
        assert not out_path.exists()

    def test_emit_matrix_unwritable_path(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.mat"
        assert main(["brieskorn", "2", "2", "--emit-matrix", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out_path.exists()

    def test_rank_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KNOTFORMS_RANK_LIMIT", "4")
        assert main(["brieskorn", "2", "3", "5"]) == 2
        err = capsys.readouterr().err
        assert "rank limit" in err
        monkeypatch.setenv("KNOTFORMS_RANK_LIMIT", "8")
        assert main(["brieskorn", "2", "3", "5"]) == 0
        capsys.readouterr()

    def test_rank_limit_env_not_an_integer(self, capsys, monkeypatch):
        # exit 1 means "not-cobordant"; a bad setting is a usage error
        monkeypatch.setenv("KNOTFORMS_RANK_LIMIT", "abc")
        assert main(["brieskorn", "2", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: KNOTFORMS_RANK_LIMIT must be an integer, got 'abc'\n"
        assert captured.out == ""


class TestCobordant:
    def test_trefoil_vs_itself(self, trefoil_file, capsys):
        assert main(["cobordant", trefoil_file, trefoil_file, "--bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "cobordant" in out
        assert "witness_basis" in out

    def test_trefoil_vs_unknot(self, trefoil_file, unknot_file, capsys):
        assert main(["cobordant", trefoil_file, unknot_file]) == 1
        out = capsys.readouterr().out
        assert "not-cobordant" in out
        assert "fox-milnor" in out

    def test_unknown_within_bound(self, tmp_path, capsys):
        # two inequivalent unimodular forms whose difference has no
        # small-entry metaboliser: trefoil against its mirror candidate
        a = tmp_path / "a.mat"
        b = tmp_path / "b.mat"
        a.write_text("q=1 rank=4\n-1 0 0 0\n1 -1 0 0\n0 0 -1 0\n0 0 1 -1\n")
        b.write_text("q=1 rank=4\n-1 0 0 0\n1 -1 1 0\n0 0 -1 0\n0 1 1 -1\n")
        code = main(["cobordant", str(a), str(b), "--bound", "1"])
        out = capsys.readouterr().out
        assert code in (0, 1, 3)
        if code == 3:
            assert "unknown-within-bound" in out

    def test_parity_mismatch(self, trefoil_file, tmp_path, capsys):
        other = tmp_path / "even.mat"
        other.write_text(SUSPENDED)
        assert main(["cobordant", trefoil_file, str(other)]) == 2
        assert "parity" in capsys.readouterr().err

    def test_bound_zero_rejected_before_any_work(self, trefoil_file, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("cobordance computed for an invalid bound")

        monkeypatch.setattr("knotforms.cli.algebraically_cobordant", fail)
        with pytest.raises(SystemExit) as exc:
            main(["cobordant", trefoil_file, trefoil_file, "--bound", "0"])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("name, code", [
        ("hnf_witness", 0),        # genus 1 against a congruent copy: repeated factors
        ("invariant_witness", 0),  # genus 2, chi_T squarefree
        ("fox_milnor", 1),
        ("genus3_fox_milnor", 1),  # each summand's delta factored on its own
        ("unknown", 3),            # genus 1, repeated factors, nothing in the box
        ("repeated_pair", 0),      # genus 3, q = 2, against a congruent copy
        ("repeated_selfrecip", 0),  # genus 2, q = 2, independent, repeated factors
    ])
    def test_matches_golden(self, name, code, fmt, capsys, monkeypatch):
        monkeypatch.chdir(GOLDEN)
        argv = ["cobordant", "--format", fmt,
                f"cobordant_{name}_a.mat", f"cobordant_{name}_b.mat"]
        assert main(argv) == code
        assert capsys.readouterr().out == (GOLDEN / f"cobordant_{name}.{fmt}").read_text()

    def test_crash_exits_2_not_1(self, trefoil_file, capsys, monkeypatch):
        # exit 1 means "not-cobordant"; an error inside a command is exit 2
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("knotforms.cli.algebraically_cobordant", crash)
        assert main(["cobordant", trefoil_file, trefoil_file]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: RuntimeError: boom\n"
        assert captured.out == ""

    def test_interrupt_propagates(self, trefoil_file, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("knotforms.cli.algebraically_cobordant", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["cobordant", trefoil_file, trefoil_file])


class TestGroups:
    def test_table_rows(self, capsys):
        assert main(["groups", "5", "9"]) == 0
        out = capsys.readouterr().out
        assert "Z/28" in out
        assert "trivial (exceptional)" in out
        assert "trivial (even n)" in out
        assert "Z/2" in out

    def test_im_j_column(self, capsys):
        main(["groups", "7"])
        out = capsys.readouterr().out
        assert "240" in out  # im J order at k = 2

    def test_machine_mode(self, capsys):
        main(["groups", "--format", "machine", "7"])
        out = capsys.readouterr().out
        assert "7\tZ/28" in out

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_table_matches_golden(self, fmt, capsys):
        assert main(["groups", "1", "130", "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"groups_1_130.{fmt}").read_text()

    def test_bad_range(self, capsys):
        assert main(["groups", "9", "5"]) == 2


class TestHandles:
    def test_trefoil(self, trefoil_file, capsys):
        assert main(["handles", trefoil_file]) == 0
        out = capsys.readouterr().out
        assert "linking_1_2" in out
        assert "framing_kind" in out
        assert "none" in out

    def test_even_q(self, tmp_path, capsys):
        path = tmp_path / "s.mat"
        path.write_text(SUSPENDED)
        main(["handles", str(path)])
        out = capsys.readouterr().out
        assert "integer" in out
        assert "[-2, -2]" in out


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_args(self):
        with pytest.raises(SystemExit) as exc:
            main(["cobordant", "only-one"])
        assert exc.value.code == 2

    def test_parser_reused_across_calls(self, trefoil_file, capsys):
        # main keeps one parser per process: a usage error leaves no state
        # behind for the next call
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["cobordant", trefoil_file, trefoil_file, "--bound", "0"])
            assert exc.value.code == 2
            assert main(["cobordant", trefoil_file, trefoil_file, "--bound", "1"]) == 0
            assert main(["groups", "5"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("--bound") == 2
        assert captured.out.count("verdict") == 2


def _matrix_text(matrix, q: int, defect: str) -> str:
    """A matrix file, or one with a single defect that the parser rejects."""
    rank = matrix.nrows
    lines = [f"q={q} rank={rank}", *(" ".join(map(str, row)) for row in matrix.rows)]
    if defect == "row-missing" and rank:
        lines.pop()
    elif defect == "token":
        lines[-1] += " x"
    elif defect == "q=0":
        lines[0] = f"q=0 rank={rank}"
    elif defect == "extra-row":
        lines.append(" ".join(["0"] * rank))
    elif defect == "no-header":
        lines.pop(0)
    return "\n".join(lines) + "\n"


matrix_files = st.builds(
    _matrix_text, st.integers(0, 4).flatmap(square_matrices), st.integers(1, 3),
    st.sampled_from(["none"] * 5 + ["row-missing", "token", "q=0", "extra-row",
                                    "no-header"]))


class TestFuzz:
    @settings(max_examples=200)
    @given(matrix_files, matrix_files, st.booleans())
    def test_every_command_ends_with_a_documented_exit_code(self, text_a, text_b, same):
        # random and malformed files through every file command: no crash
        # reaches the catch-all, whose line reads "error: <Type>: ..."
        with tempfile.TemporaryDirectory() as tmp:
            path_a, path_b = Path(tmp, "a.mat"), Path(tmp, "b.mat")
            path_a.write_text(text_a)
            path_b.write_text(text_a if same else text_b)
            for argv in (["invariants", str(path_a)], ["handles", str(path_a)],
                         ["cobordant", str(path_a), str(path_b), "--bound", "1"]):
                out, err = io.StringIO(), io.StringIO()
                start = time.monotonic()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2, 3), argv
                assert time.monotonic() - start < 10.0, argv
                assert not re.search(r"^error: \w+: ", err.getvalue(), re.M), err.getvalue()
