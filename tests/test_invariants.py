import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert, germ_report
from knotforms.cli import main
from knotforms.cobordism import EpsForm, negate, orthogonal_sum
from knotforms.exact import Matrix, det
from knotforms.invariants import Invariants
from knotforms.matrixfile import parse_matrix_file
from knotforms.quadratic import karl, levine_congruence_check, signature
from knotforms.seifert import (SeifertMatrix, characteristic_polynomial, intersection_form,
                               is_quasi_unipotent, monodromy)
from knotforms.spheres import bp_class

from generators import eps_forms, square_matrices

GOLDEN = Path(__file__).parent / "golden"

LADDER = [(6 * k - 1, 3, 2, 2, 2) for k in range(1, 5)] + [
    (d, 2, 2, 2, 2, 2) for d in range(3, 32, 2)]

# five trefoils summed: fibered, and of rank 10, past the fraction-free
# pencil kernel of exact; the monodromy's adjugate runs no exact.det at any rank
TREFOIL_SUM_10 = "q=1 rank=10\n" + "".join(
    " ".join("-1" if j == i else "1" if j == i - 1 and i % 2 else "0" for j in range(10)) + "\n"
    for i in range(10))


class TestCharPoly:
    @given(st.integers(1, 6).flatmap(lambda n: square_matrices(n, -4, 4)),
           st.integers(1, 3))
    @example(Matrix([[2, 1], [0, 1]]), 1)
    @example(Matrix([[3, 0], [1, -2]]), 2)
    def test_matches_monodromy_charpoly(self, a, q):
        # chi_h from the Alexander polynomial against the charpoly of the
        # matrix h itself, rational h included
        assume(det(a) != 0)
        s = SeifertMatrix(a, q=q)
        inv, h = Invariants(s), monodromy(s)
        assert inv.char_poly == characteristic_polynomial(h)
        assert inv.quasi_unipotent == is_quasi_unipotent(h)

    @pytest.mark.parametrize("exponents", LADDER + [(2, 3), (2, 2), (3, 5, 7), (5,)])
    def test_germs(self, exponents):
        s = brieskorn_seifert(BrieskornGerm(exponents))
        inv = Invariants(s)
        h = monodromy(s)
        assert inv.char_poly == characteristic_polynomial(h)
        assert inv.quasi_unipotent == is_quasi_unipotent(h)

    def test_singular_form_has_none(self):
        inv = Invariants(SeifertMatrix(Matrix([[0, 1], [0, 0]]), q=1))
        assert inv.char_poly is None and inv.quasi_unipotent is None
        assert inv.monodromy is None


class TestStages:
    @pytest.mark.parametrize("rows,q", [([[-1, 0], [1, -1]], 1), ([[-1, 0], [1, -1]], 3),
                                        ([[2, 1], [0, 1]], 1), ([[0, 1], [0, 0]], 1)])
    def test_odd_q_matches_public_helpers(self, rows, q):
        s = SeifertMatrix(Matrix(rows), q=q)
        inv = Invariants(s)
        assert inv.arf == karl(s)
        assert inv.levine_congruence == levine_congruence_check(s)
        assert inv.form_signature is None
        assert inv.bp == bp_class(Invariants(s))

    @given(eps_forms(5, -1), st.sampled_from((1, 3, 5)))
    @example(EpsForm(Matrix([], ncols=0), -1), 1)
    def test_arf_from_delta_matches_karl(self, f, q):
        # arf is read off the Conway form; karl, the symplectic reduction of
        # the Seifert quadratic form over F_2, is the independent oracle.  An
        # eps-form with eps = -1 is a unimodular Seifert matrix at any odd q
        s = SeifertMatrix(f.matrix, q)
        assert Invariants(s).arf == karl(s)

    def test_even_q_signature_from_bp(self):
        s = brieskorn_seifert(BrieskornGerm((2, 2, 2, 3, 5)))
        inv = Invariants(s)
        assert inv.form_signature == signature(inv.intersection) == 8
        assert inv.arf is None
        assert inv.levine_congruence is None

    def test_not_unimodular_has_no_sphere_class(self):
        inv = Invariants(SeifertMatrix(Matrix([[-1]]), q=1))
        assert not inv.unimodular
        assert inv.bp is None and inv.levine_congruence is None
        assert inv.alexander_conway is None and inv.arf is None
        assert "value at t=1 is 0" in inv.conway_error


@pytest.fixture()
def calls(monkeypatch):
    """Count calls to library functions: every knotforms binding of each
    named function is replaced by a counting wrapper.  Calls to exact.det
    are counted per argument matrix, in calls.det_args."""
    counts = Counter()
    counts.det_args = Counter()

    def watch(module: str, name: str, counter: Counter, key_of):
        original = getattr(sys.modules[f"knotforms.{module}"], name)

        def counted(*args, **kwargs):
            counter[key_of(args)] += 1
            return original(*args, **kwargs)

        for key, mod in list(sys.modules.items()):
            if key.startswith("knotforms") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    for module, name in [("laurent", "det_pencil"), ("laurent", "is_product_of_cyclotomics"),
                         ("quadratic", "karl"), ("quadratic", "signature")]:
        watch(module, name, counts, lambda args, name=name: name)
    watch("exact", "det", counts.det_args, lambda args: args[0])
    return counts


class TestOneComputationPerInvariant:
    """det A and det I are read off the one Alexander polynomial and handed
    to the stages that need them, so no report calls exact.det."""

    @pytest.mark.parametrize("exponents", [("2", "3", "5"), ("5", "3", "2", "2", "2"),
                                           ("3", "2", "2", "2", "2", "2"), ("2", "2")])
    def test_germ_report(self, exponents, calls, capsys):
        # quasi-unipotence, the signature and the Arf invariant of a germ
        # come from closed forms
        assert main(["brieskorn", *exponents]) == 0
        assert calls == Counter(det_pencil=1)
        assert not calls.det_args

    @pytest.mark.parametrize("text", ["q=1 rank=2\n-1 0\n1 -1\n", "q=3 rank=2\n2 1\n0 1\n",
                                      "q=2 rank=2\n0 1\n0 0\n", "q=1 rank=1\n-1\n",
                                      TREFOIL_SUM_10])
    def test_file_report(self, text, calls, tmp_path, capsys):
        path = tmp_path / "s.mat"
        path.write_text(text)
        assert main(["invariants", str(path)]) == 0
        assert calls["det_pencil"] == 1
        assert calls["karl"] <= 1 and calls["signature"] <= 1
        # seifert.monodromy is handed the det A read off Delta, so not even
        # a fibered form's report computes a determinant
        assert not calls.det_args

    def test_germ_report_object_reads_stages_once(self, calls):
        rep = germ_report(BrieskornGerm((2, 2, 2, 2, 2, 3)))
        for _ in range(2):
            rep.char_poly, rep.alexander_conway, rep.arf, rep.anomalies
        assert calls == Counter(det_pencil=1)
        assert not calls.det_args

    @pytest.mark.parametrize("name", sorted(
        p.name[len("cobordant_"):-len("_a.mat")] for p in GOLDEN.glob("cobordant_*_a.mat")))
    def test_cobordant(self, name, calls, monkeypatch, capsys):
        # the battery reads the difference's form_signature (eps = +1) or
        # arf (eps = -1) stage, once, and no determinant; arf is read off
        # the Conway form, so karl is never called
        monkeypatch.chdir(GOLDEN)
        main(["cobordant", f"cobordant_{name}_a.mat", f"cobordant_{name}_b.mat"])
        assert capsys.readouterr().out == (GOLDEN / f"cobordant_{name}.text").read_text()
        odd = parse_matrix_file((GOLDEN / f"cobordant_{name}_a.mat").read_text()).q % 2
        assert (calls["signature"], calls["karl"]) == ((0, 0) if odd else (1, 0))
        assert not calls.det_args


class TestEpsFormPipeline:
    @given(st.sampled_from((-1, 1)).flatmap(
        lambda eps: st.tuples(eps_forms(2, eps), eps_forms(2, eps))), st.integers(0, 1))
    def test_difference_matches_fresh_invariants(self, forms, k):
        # the difference's delta is the product of its summands' block
        # deltas; a fresh pipeline on the same matrix takes the whole-matrix
        # pencil and signature, at a q of the same parity; the Arf invariant
        # read off delta is checked against the F_2 symplectic reduction
        f1, f2 = forms
        diff = orthogonal_sum(f1, negate(f2))
        fresh = Invariants(SeifertMatrix(diff.matrix, (1 if diff.eps == -1 else 2) + 2 * k))
        assert diff.alexander_raw == fresh.alexander_raw
        assert diff.unimodular and fresh.unimodular
        assert diff.form_signature == fresh.form_signature
        assert diff.arf == (karl(diff.seifert) if diff.eps == -1 else None)


@st.composite
def matrices_with_singular(draw, max_n: int):
    """n x n matrices, 0 <= n <= max_n, entries in [-3, 3]; for n >= 2 the
    last row is drawn as a combination of the others about half the time,
    so singular matrices are common."""
    n = draw(st.integers(0, max_n))
    rows = draw(square_matrices(n)).rows
    if n >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows = [*rows[:-1], [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]]
    return Matrix(rows, ncols=n)


class TestDeterminantsFromDelta:
    @given(matrices_with_singular(8), st.integers(1, 4))
    @example(Matrix([], ncols=0), 1)
    @example(Matrix([[0, 1], [0, 0]]), 1)
    @example(Matrix([[1, 1], [-1, -1]]), 2)
    def test_match_bareiss(self, a, q):
        s = SeifertMatrix(a, q=q)
        inv = Invariants(s)
        assert inv.det_a == det(a) and type(inv.det_a) is int
        assert inv.det_intersection == det(intersection_form(s))
        assert type(inv.det_intersection) is int
