"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

cli = run.load_cli()


def intersection_det(matrix, q):
    eps = -1 if q % 2 else 1
    n = len(matrix)
    return verify.det_int([[matrix[i][j] + eps * matrix[j][i] for j in range(n)]
                           for i in range(n)])


def call(argv):
    res = run.run_op(cli, argv, budget=60.0)
    assert res["status"] == "done", res["detail"]
    return res["rc"], res["out"]


def write(tmp_path, name, matrix, q):
    path = tmp_path / name
    path.write_text(corpus.serialize(matrix, q))
    return str(path)


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize("make", [corpus.germ_ladder, corpus.matrix_files,
                                  corpus.cobordance_pairs])
def test_generator_is_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_generated_matrices_are_unimodular():
    for seed in (1, 2):
        for spec in corpus.matrix_files(seed):
            assert intersection_det(spec["matrix"], spec["q"]) in (1, -1)
        for spec in corpus.cobordance_pairs(seed):
            assert intersection_det(spec["a"], spec["q"]) in (1, -1)
            assert intersection_det(spec["b"], spec["q"]) in (1, -1)


def test_congruence_factor_is_unimodular():
    import random

    rng = random.Random(3)
    for n in (2, 6, 10):
        assert verify.det_int(corpus.random_unimodular(rng, n)) in (1, -1)


# -- oracles ------------------------------------------------------------------

def replace_line(out, key, value):
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in out.splitlines()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", [
    {"family": "milnor", "k": 2, "exponents": (11, 3, 2, 2, 2)},
    {"family": "kervaire", "d": 5, "exponents": (5, 2, 2, 2, 2, 2)},
    {"family": "kervaire", "d": 7, "exponents": (7, 2, 2, 2, 2, 2)},
])
def test_germ_oracle(spec):
    rc, out = call(["brieskorn", *map(str, spec["exponents"]), "--format", "machine"])
    assert verify.check_germ(spec, rc, out) is None
    assert verify.check_germ(spec, 2, out) is not None
    assert verify.check_germ(spec, rc, out + "anomaly=x\n") is not None
    assert verify.check_germ(spec, rc, replace_line(out, "quasi_unipotent", "no")) is not None
    assert verify.check_germ(spec, rc, replace_line(out, "alexander_raw", "1 + t")) is not None
    if spec["family"] == "milnor":
        assert verify.check_germ(spec, rc, replace_line(out, "bp_class", "3")) is not None
    else:
        flipped = "no" if "exotic=yes" in out else "yes"
        assert verify.check_germ(spec, rc, replace_line(out, "exotic", flipped)) is not None


def test_invariants_oracle(tmp_path):
    spec = next(s for s in corpus.matrix_files(5) if s["q"] % 2 and len(s["matrix"]) >= 4)
    rc, out = call(["invariants", "--format", "machine",
                    write(tmp_path, "m.mat", spec["matrix"], spec["q"])])
    assert verify.check_invariants(spec, rc, out) is None
    assert verify.check_invariants(spec, rc, replace_line(out, "levine_congruence", "no"))
    assert verify.check_invariants(spec, rc, replace_line(out, "unimodular", "no"))
    assert verify.check_invariants(spec, rc, replace_line(out, "elementary_divisors", "[]"))
    assert verify.check_invariants(spec, rc, replace_line(out, "elementary_divisors", "[2 + t]"))


def test_poly_parser_round_trips_rendering():
    from knotforms.laurent import Laurent, render_poly
    from fractions import Fraction

    p = Laurent({-2: 3, 0: -1, 1: Fraction(1, 2), 5: -7})
    assert verify.parse_poly(render_poly(p)) == {-2: 3, 0: -1, 1: Fraction(1, 2), 5: -7}
    assert verify.parse_poly("0") == {}


TREFOIL = [[-1, 1], [0, -1]]
UNKNOT = [[0, 1], [0, 0]]


def test_cobordance_oracle_witness(tmp_path):
    spec = {"q": 1, "a": TREFOIL, "b": TREFOIL, "self_congruent": True}
    pa = write(tmp_path, "a.mat", TREFOIL, 1)
    rc, out = call(["cobordant", pa, pa, "--format", "machine"])
    assert rc == 0
    assert verify.check_cobordance(spec, rc, out) is None
    basis = [line for line in out.splitlines() if line.startswith("witness_basis=")][0]
    bad = out.replace(basis, "witness_basis=[[1, 0, 0, 0], [0, 1, 0, 0]]")
    assert "isotropic" in verify.check_cobordance(spec, rc, bad)
    assert verify.check_cobordance(spec, rc, out.replace(basis, "witness_basis=[[2, 0, 2, 0], [0, 2, 0, 2]]"))
    assert verify.check_cobordance(spec, 1, out) is not None


def test_cobordance_oracle_fox_milnor(tmp_path):
    spec = {"q": 1, "a": TREFOIL, "b": UNKNOT, "self_congruent": False}
    rc, out = call(["cobordant", write(tmp_path, "a.mat", TREFOIL, 1),
                    write(tmp_path, "b.mat", UNKNOT, 1), "--format", "machine"])
    assert (rc, verify.parse_report(out)[1]) == (1, ("obstruction", "fox-milnor"))
    assert verify.check_cobordance(spec, rc, out) is None
    # the same refutation claimed for a pair whose polynomial is Q(t)Q(1/t)
    same = {"q": 1, "a": TREFOIL, "b": TREFOIL, "self_congruent": False}
    assert "fox-milnor" in verify.check_cobordance(same, rc, out)
    congruent = dict(spec, self_congruent=True)
    assert verify.check_cobordance(congruent, rc, out) is not None


def test_arf_and_signature_oracles():
    assert verify.arf_by_counting(TREFOIL) == 1
    assert verify.arf_by_counting(UNKNOT) == 0
    assert verify.signature_float([[2, 1], [1, 2]]) == 2
    assert verify.signature_float([[0, 1], [1, 0]]) == 0


def test_tail_has_ten_operations_beyond_it():
    ops = [{"key": f"op{i}"} for i in range(19)]
    passes = [{"results": [{"ref_latency": float(i)} for i in range(19)]},
              {"results": [{"ref_latency": float(i) + 2} for i in range(19)]}]
    wall, p50, tail, pct, n = run.latency_figures(ops, passes)
    # per-operation medians are i + 1; ten of them (10..19) lie beyond 9
    assert (wall, p50, tail, n) == (190.0, 10.0, 9.0, 19)
    assert round(pct) == 47


def test_judge_counts_failed_operations_once_and_overruns_only_in_ratios(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, "cobordance",
                        lambda spec, rc, out: "rejected" if out == "bad" else None)
    ops = [{"spec": {}, "argv": [f"op{i}"]} for i in range(3)]
    done = {"status": "done", "rc": 0, "out": "good"}
    overrun = {"status": "overrun", "rc": None, "out": ""}
    rejected = {"status": "done", "rc": 0, "out": "bad"}
    passes = [{"results": [done, overrun, rejected]},
              {"results": [done, done, rejected]}]
    verdicts = run.judge("cobordance", ops, passes)
    assert (verdicts["attempted"], verdicts["failed"]) == (3, 1)
    assert (verdicts["executions"], verdicts["overruns"], verdicts["incorrect"]) == (6, 1, 2)
    assert verdicts["decided"] == 3


# -- budget and tracer ----------------------------------------------------------

class SlowCli:
    @staticmethod
    def main(argv):
        end = time.perf_counter() + 30
        while time.perf_counter() < end:
            pass
        return 0


def test_budget_stops_a_slow_call():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        res = run.run_op(SlowCli, [], budget=0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert res["status"] == "overrun"
    assert res["latency"] < 5


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import knotforms.exact
    import knotforms.seifert

    original = knotforms.exact.det
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert knotforms.seifert.det is not original
        assert knotforms.seifert.det is knotforms.exact.det
        rc, _ = call(["invariants", "--format", "machine",
                      write(tmp_path, "t.mat", TREFOIL, 1)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert knotforms.seifert.det is original and knotforms.exact.det is original
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["seifert.knot_module"] == 1
    assert tracer.calls["exact.det"] > 1
    assert tracer.calls["laurent.det_pencil"] >= 1
    main_span = tracer.total["cli.main"]
    assert 0 < tracer.self_time["cli.main"] <= main_span
    assert sum(tracer.self_time.values()) <= main_span * 1.001
    assert len(tracer.spans) == sum(tracer.calls.values())
