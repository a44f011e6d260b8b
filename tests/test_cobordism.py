import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd, isqrt, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotforms import cobordism
from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
from knotforms.cli import main
from knotforms.cobordism import (EpsForm, EpsFormError, _chi_factors, _cyclic_span,
                                 _direct_sum, _enumerate_hnf, _hnf_key, _integer_kernel,
                                 _invariant_metabolisers, _isotropic_rows, _isotropy_forms,
                                 _joint_span, _nonzeros, _orthogonal_blocks,
                                 _reciprocal_normalized,
                                 _row_hnf, _saturation, _span_echelon, _square_at_minus_one,
                                 algebraically_cobordant, eps_form_of, fox_milnor,
                                 is_metaboliser, negate, null_cobordance_obstructions,
                                 orthogonal_sum, search_metaboliser)
from knotforms.exact import (Matrix, ShapeError, det, inverse, pencil_det_coefficients,
                             smith_normal_form)
from knotforms.laurent import Laurent, det_pencil, factor_int_poly, render_poly
from knotforms.quadratic import signature

from generators import eps_forms, random_unimodular, square_matrices
from oracles import (brute_force_rank1_metaboliser_absent, cyclic_span_isotropic,
                     enumerate_hnf_unpruned, integer_kernel_smith,
                     invariant_metabolisers_horner, inverse_gauss_jordan, isotropic_rows_box,
                     lattice_basis_smith, saturation_smith)

GOLDEN = Path(__file__).parent / "golden"

A1 = Matrix([[-1, 0], [1, -1]])
TREFOIL_FORM = EpsForm(A1, -1)
HYPERBOLIC_FORM = EpsForm(Matrix([[0, 1], [0, 0]]), -1)
EMPTY_FORM = EpsForm(Matrix([], ncols=0), -1)


def symmetrization(f: EpsForm) -> Matrix:
    # B = A + eps A^T
    return f.matrix + f.matrix.transpose().scale(f.eps)


def upper_half(sym: Matrix) -> Matrix:
    # A with A + A^T = sym, for an even symmetric matrix
    n = sym.nrows
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = sym.rows[i][i] // 2
        for j in range(i + 1, n):
            rows[i][j] = sym.rows[i][j]
    return Matrix(rows, ncols=n)


class TestValidateEpsForm:
    def test_trefoil_valid(self):
        assert EpsForm(A1, -1).rank == 2

    def test_zero_invalid(self):
        with pytest.raises(EpsFormError):
            EpsForm(Matrix([[0]]), -1)

    def test_symmetric_one_invalid(self):
        with pytest.raises(EpsFormError):
            EpsForm(Matrix([[1]]), 1)  # symmetrization (2)

    def test_bad_eps(self):
        with pytest.raises(EpsFormError):
            EpsForm(Matrix([[1]]), 0)

    def test_singular_symmetrization_rejected(self):
        # det B = 0: T would be undefined
        with pytest.raises(EpsFormError, match="determinant 0"):
            EpsForm(Matrix([[0, 1], [-1, 0]]), 1)

    @pytest.mark.parametrize("rows,eps,d", [
        ([[-1]], 1, -2), ([[0, 1], [1, 1]], 1, -4), ([[0, 2], [0, 0]], -1, 4),
        ([[0, 0], [2, 0]], -1, 4),  # a zero row: delta = 4t
        ([[0, 0], [0, 1]], -1, 0),  # a zero row and column: delta = 0
        ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], -1, 0)])
    def test_non_unimodular_symmetrization_rejected(self, rows, eps, d):
        # |det B| != 1: T = B^-1 A would not be integral
        assert det(Matrix(rows) + Matrix(rows).transpose().scale(eps)) == d
        with pytest.raises(EpsFormError, match=f"determinant {d},"):
            EpsForm(Matrix(rows), eps)

    @given(st.integers(1, 4).flatmap(square_matrices), st.sampled_from((-1, 1)))
    def test_error_names_det_b(self, a, eps):
        # det B is read off the blocks' pencils as delta(1); the message
        # names the same determinant as Bareiss's elimination of B
        d = det(a + a.transpose().scale(eps))
        assume(d not in (1, -1))
        with pytest.raises(EpsFormError, match=f"determinant {d},"):
            EpsForm(a, eps)

    @given(st.sampled_from((1, 3, 5)).flatmap(square_matrices), st.sampled_from((-1, 1)))
    def test_odd_rank_rejected(self, a, eps):
        # B mod 2 is alternating, so det B is even at odd rank: no odd-rank
        # eps-form exists for a search or an obstruction to handle
        with pytest.raises(EpsFormError):
            EpsForm(a, eps)

    def test_lists_coerced_and_non_integers_rejected(self):
        assert EpsForm([[-1, 0], [1, -1]], -1).matrix == TREFOIL_FORM.matrix
        with pytest.raises(TypeError):
            EpsForm(Matrix([[Fraction(1, 2), 1], [0, 0]]), -1)
        with pytest.raises(ShapeError):
            EpsForm(Matrix([[0, 1]]), -1)


class TestIsMetaboliser:
    def test_hyperbolic_vector(self):
        assert is_metaboliser(HYPERBOLIC_FORM, [(1, 0)])

    def test_trefoil_has_no_rank1(self):
        # definite quadratic form: exhaustive bound-10 confirmation
        assert brute_force_rank1_metaboliser_absent(A1, 10)
        for x1 in range(-10, 11):
            for x2 in range(-10, 11):
                if (x1, x2) != (0, 0):
                    assert not is_metaboliser(TREFOIL_FORM, [(x1, x2)])

    def test_impure_rejected(self):
        assert not is_metaboliser(HYPERBOLIC_FORM, [(2, 0)])
        assert smith_normal_form(Matrix([[2, 0]])) == (2,)

    def test_wrong_rank_rejected(self):
        assert not is_metaboliser(HYPERBOLIC_FORM, [(1, 0), (0, 1)])

    def test_empty(self):
        assert is_metaboliser(EMPTY_FORM, [])

    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            is_metaboliser(HYPERBOLIC_FORM, [(Fraction(1, 2), 0)])
        with pytest.raises(TypeError):
            is_metaboliser(HYPERBOLIC_FORM, [(0.5, 0)])
        assert is_metaboliser(HYPERBOLIC_FORM, [(Fraction(2, 2), 0)])


class TestSearchMetaboliser:
    def test_hyperbolic_direct(self):
        result = search_metaboliser(HYPERBOLIC_FORM, 1)
        assert result.found
        assert result.witness.basis == ((1, 0),)

    def test_sum_with_negation(self):
        diff = orthogonal_sum(TREFOIL_FORM, negate(TREFOIL_FORM))
        result = search_metaboliser(diff, 2)
        assert result.found
        assert is_metaboliser(diff, result.witness.basis)
        # the diagonal sublattice is a (possibly different) witness
        assert is_metaboliser(diff, [(1, 0, 1, 0), (0, 1, 0, 1)])

    def test_trefoil_not_found(self):
        result = search_metaboliser(TREFOIL_FORM, 5)
        assert result.status == "not-found-within-bound"

    def test_rank0_found_empty(self):
        result = search_metaboliser(EMPTY_FORM, 1)
        assert result.found and result.witness.basis == ()

    def test_determinism(self):
        diff = orthogonal_sum(TREFOIL_FORM, negate(TREFOIL_FORM))
        a = search_metaboliser(diff, 2)
        b = search_metaboliser(diff, 2)
        assert a.witness.basis == b.witness.basis

    def test_witness_implies_obstructions_pass(self):
        rng = random.Random(2024)
        tested = 0
        while tested < 20:
            n = rng.choice([2, 4])
            a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
                       ncols=n)
            try:
                form = EpsForm(a, -1)
            except EpsFormError:
                continue
            tested += 1
            result = search_metaboliser(form, 2)
            if result.found:
                assert null_cobordance_obstructions(form).all_pass


class TestFoxMilnor:
    def test_trefoil_delta_fails(self):
        assert not fox_milnor(factor_int_poly(Laurent({0: 1, 1: -1, 2: 1})))

    def test_constructed_product_passes(self):
        assert fox_milnor(factor_int_poly(Laurent({0: -2, 1: 5, 2: -2})))  # (2 - t)(2t - 1)

    def test_unit_passes(self):
        assert fox_milnor(factor_int_poly(Laurent.one()))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fox_milnor(factor_int_poly(Laurent.zero()))

    def test_constructive_fuzz(self):
        rng = random.Random(31415)
        built = 0
        while built < 60:
            degree = rng.randint(1, 3)
            coeffs = {i: rng.randint(-3, 3) for i in range(degree + 1)}
            q = Laurent(coeffs)
            if q.is_zero or q(1) not in (1, -1):
                continue
            built += 1
            product = q * q.reciprocal()
            assert fox_milnor(factor_int_poly(product))

    def test_odd_square_content_fails(self):
        # content 2 is not a perfect square
        assert not fox_milnor(factor_int_poly(Laurent({0: -2, 1: 2})))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any),
           st.integers(1, 4), st.integers(-3, 3), st.sampled_from((1, -1)))
    def test_square_at_minus_one_passes_products(self, coeffs, c, k, sign):
        # +-t^k c^2 Q(t) Q(1/t) passes Fox-Milnor, so the test at -1 must
        # not refute it
        q = Laurent.from_coeff_list(coeffs)
        p = Laurent({k: sign * c * c}) * q * q.reciprocal()
        assert fox_milnor(factor_int_poly(p))
        assert _square_at_minus_one(p)

    @settings(max_examples=150)
    @given(st.one_of(eps_forms(4), st.sampled_from((-1, 1)).flatmap(
        lambda eps: st.tuples(eps_forms(2, eps), eps_forms(2, eps)).map(
            lambda forms: orthogonal_sum(forms[0], negate(forms[1]))))))
    def test_eps_form_delta_fails_only_on_odd_self_reciprocal(self, f):
        # delta(1) = det B = +-1 makes the content 1, and
        # delta(t) = (eps t)^n delta(1/t) pairs every factor with its
        # reciprocal at equal multiplicity; so Fox-Milnor fails exactly on
        # an odd multiplicity of a self-reciprocal factor
        fact = f.delta_factorization
        counts = dict(fact.factors)
        assert fact.content == 1
        assert all(counts.get(_reciprocal_normalized(poly)) == mult
                   for poly, mult in counts.items())
        assert fox_milnor(fact) == all(
            mult % 2 == 0 for poly, mult in counts.items()
            if _reciprocal_normalized(poly) == poly)

    @given(st.sampled_from((-1, 1)).flatmap(
        lambda eps: st.tuples(eps_forms(2, eps), eps_forms(2, eps))))
    def test_square_at_minus_one_on_differences(self, forms):
        # the test at -1 refutes only what factoring refutes, and the report
        # is the one that factoring every delta gives, certificate and all
        f1, f2 = forms
        diff = orthogonal_sum(f1, negate(f2))
        factored = fox_milnor(factor_int_poly(diff.alexander_raw))
        if not _square_at_minus_one(diff.alexander_raw):
            assert not factored
        report = null_cobordance_obstructions(diff)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cobordism, "_square_at_minus_one", lambda p: True)
            assert null_cobordance_obstructions(orthogonal_sum(f1, negate(f2))) == report
        assert next(c.passed for c in report.checks if c.name == "fox-milnor") == factored


class TestObstructions:
    def test_trefoil_fails(self):
        report = null_cobordance_obstructions(TREFOIL_FORM)
        assert not report.all_pass
        named = {c.name: c.passed for c in report.checks}
        assert named["fox-milnor"] is False
        assert named["arf"] is False

    def test_hyperbolic_passes(self):
        assert null_cobordance_obstructions(HYPERBOLIC_FORM).all_pass

    def test_e8_signature_fails(self):
        s = brieskorn_seifert(BrieskornGerm((2, 2, 2, 3, 5)))
        form = eps_form_of(s)
        assert form.eps == 1
        report = null_cobordance_obstructions(form)
        named = {c.name: c.passed for c in report.checks}
        assert named["signature"] is False
        assert "8" in next(c for c in report.checks
                           if c.name == "signature").certificate
        # delta(-1) = det(A^T - A) is a square for eps = +1, so Fox-Milnor
        # is refuted by factoring the irreducible, self-reciprocal delta
        assert _square_at_minus_one(form.alexander_raw)
        assert named["fox-milnor"] is False

    def test_signature_additivity(self):
        f1 = EpsForm(upper_half(_e8()), 1)
        f2 = EpsForm(upper_half(Matrix([[0, 1], [1, 0]])), 1)
        diff = orthogonal_sum(f1, negate(f2))
        assert diff.form_signature == f1.form_signature - f2.form_signature == 8
        for f in (f1, f2, diff):
            assert f.form_signature == signature(symmetrization(f))


def _e8() -> Matrix:
    return Matrix([
        [2, 1, 0, 0, 0, 0, 0, 0],
        [1, 2, 1, 0, 0, 0, 0, 0],
        [0, 1, 2, 1, 0, 0, 0, 1],
        [0, 0, 1, 2, 1, 0, 0, 0],
        [0, 0, 0, 1, 2, 1, 0, 0],
        [0, 0, 0, 0, 1, 2, 1, 0],
        [0, 0, 0, 0, 0, 1, 2, 0],
        [0, 0, 1, 0, 0, 0, 0, 2],
    ])


class TestAlgebraicallyCobordant:
    def test_trefoil_to_itself(self):
        verdict = algebraically_cobordant(TREFOIL_FORM, TREFOIL_FORM, bound=2)
        assert verdict.status == "cobordant"
        assert verdict.witness is not None

    def test_trefoil_to_unknot(self):
        verdict = algebraically_cobordant(TREFOIL_FORM, EMPTY_FORM, bound=2)
        assert verdict.status == "not-cobordant"
        assert verdict.obstruction.name == "fox-milnor"

    def test_hyperbolic_to_unknot(self):
        verdict = algebraically_cobordant(HYPERBOLIC_FORM, EMPTY_FORM, bound=2)
        assert verdict.status == "cobordant"

    def test_eps_mismatch(self):
        plus = EpsForm(upper_half(Matrix([[0, 1], [1, 0]])), 1)
        with pytest.raises(EpsFormError):
            algebraically_cobordant(plus, TREFOIL_FORM, bound=1)


@pytest.fixture()
def stage_calls(monkeypatch):
    """Count, per EpsForm stage, the matrices whose intersection form
    eps B is built (in calls.built), and the calls to adjugate_product,
    factor_int_poly, det_pencil and det through every knotforms binding,
    with their arguments (in calls.args)."""
    calls = Counter()
    calls.built = []
    calls.args = {}
    build = EpsForm.intersection.func

    def intersection(self):
        calls.built.append(self.matrix)
        return build(self)

    stage = cached_property(intersection)
    stage.__set_name__(EpsForm, "intersection")
    monkeypatch.setattr(EpsForm, "intersection", stage)
    for module, name in [("exact", "adjugate_product"), ("laurent", "factor_int_poly"),
                         ("laurent", "det_pencil"), ("exact", "det")]:
        original = getattr(sys.modules[f"knotforms.{module}"], name)
        calls.args[name] = []

        def counted(*args, original=original, name=name):
            calls[name] += 1
            calls.args[name].append(args)
            return original(*args)

        for key, mod in list(sys.modules.items()):
            if key.startswith("knotforms") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def _cobordance_cases():
    rng = random.Random(909)
    genus_two = EpsForm(Matrix([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 0, 2]]), -1)
    p = random_unimodular(rng, 4)
    copy = EpsForm(p.transpose() @ genus_two.matrix @ p, -1)
    return [(TREFOIL_FORM, TREFOIL_FORM), (TREFOIL_FORM, EMPTY_FORM),
            (HYPERBOLIC_FORM, EMPTY_FORM), (HYPERBOLIC_FORM, TREFOIL_FORM),
            (genus_two, TREFOIL_FORM), (genus_two, genus_two), (genus_two, copy)]


class TestStagesComputedOnce:
    @pytest.mark.parametrize("f1,f2", _cobordance_cases())
    def test_algebraically_cobordant(self, f1, f2, stage_calls):
        # f1 and f2 are validated from their blocks' pencils, the only
        # pencils taken: the difference carries theirs.  B is built for the
        # difference alone, when the signature or the search needs it, and
        # the battery and the search share its B, T and factorization of delta
        f1, f2 = EpsForm(f1.matrix, f1.eps), EpsForm(f2.matrix, f2.eps)
        verdict = algebraically_cobordant(f1, f2, bound=2)
        widths = sorted(a.nrows for a, _ in stage_calls.args["det_pencil"])
        matrix = _direct_sum(f1.matrix, -f2.matrix)
        assert stage_calls.built == [matrix] * (f1.eps == 1 or verdict.obstruction is None)
        assert stage_calls["adjugate_product"] <= (verdict.obstruction is None)
        assert stage_calls["det"] == 0
        blocks = _orthogonal_blocks(f1) + _orthogonal_blocks(f2)
        # each distinct block delta is factored once, and none when
        # |delta(-1)| is not a square, which refutes Fox-Milnor unfactored
        at_minus_one = abs(f1.alexander_raw(-1) * f2.alexander_raw(-1))
        distinct = len(set(f1.block_deltas + f2.block_deltas))
        square = isqrt(at_minus_one) ** 2 == at_minus_one
        assert stage_calls["factor_int_poly"] == distinct * square
        assert widths == sorted(len(block) for block in blocks)


@pytest.fixture()
def cyclic_spans(monkeypatch):
    """The number of cyclic spans the metaboliser walk takes."""
    calls = Counter()
    build = cobordism._cyclic_span

    def counted(*args, **kwargs):
        calls["_cyclic_span"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(cobordism, "_cyclic_span", counted)
    return calls


class TestGoldenWork:
    # guards on the work of the golden cobordant runs, counted rather than
    # timed

    def _run(self, name, monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN)
        main(["cobordant", f"cobordant_{name}_a.mat", f"cobordant_{name}_b.mat"])
        assert capsys.readouterr().out == (GOLDEN / f"cobordant_{name}.text").read_text()

    def test_repeated_genus3_walk_spans(self, cyclic_spans, monkeypatch, capsys):
        # with A T in place of A T^2 for eps = -1, 228 rows reached the
        # cyclic span to keep 2
        self._run("repeated_genus3_q1", monkeypatch, capsys)
        assert cyclic_spans["_cyclic_span"] <= 20

    @pytest.mark.parametrize("name", ["fox_milnor", "genus3_fox_milnor"])
    def test_fox_milnor_refuted_unfactored(self, name, stage_calls, monkeypatch, capsys):
        # |delta(-1)| is not a square: nothing is factored
        self._run(name, monkeypatch, capsys)
        assert stage_calls["factor_int_poly"] == 0


def _permuted(f: EpsForm, order) -> EpsForm:
    # the congruent form Q^T A Q, Q the permutation matrix of `order`
    return EpsForm(matrix=f.matrix.submatrix(order, order), eps=f.eps)


def _metabolisers(f: EpsForm, bound: int, walk=enumerate_hnf_unpruned):
    """The metabolisers among an HNF walk's bases, in its order."""
    return (basis for basis in walk(f, f.rank, f.rank // 2, bound)
            if is_metaboliser(f, basis))


def _first_hnf_hit(f: EpsForm, bound: int, walk=enumerate_hnf_unpruned):
    """The HNF walk's answer: its first metaboliser in the bound box."""
    return next(_metabolisers(f, bound, walk), None)


class TestIsometricStructure:
    @given(st.sampled_from((-1, 1)).flatmap(
        lambda eps: st.tuples(eps_forms(2, eps), eps_forms(1, eps))), st.randoms())
    def test_per_block_fox_milnor_matches_whole_product(self, forms, rnd):
        f1, f2 = forms
        order = list(range(f1.rank + f2.rank))
        rnd.shuffle(order)
        diff = _permuted(orthogonal_sum(f1, negate(f2)), order)
        blocks = _orthogonal_blocks(diff)
        assert len(blocks) >= 2
        assert sorted(i for block in blocks for i in block) == list(range(diff.rank))
        merged = diff.delta_factorization
        assert all(poly.max_exponent <= max(map(len, blocks)) for poly, _ in merged.factors)
        whole = det_pencil(diff.matrix, diff.matrix.transpose().scale(diff.eps))
        assert merged.product() == whole
        assert diff.alexander_raw == whole
        for f in (f1, f2, diff):
            assert f.alexander_raw(1) == det(symmetrization(f)) in (1, -1)
        assert fox_milnor(merged) == fox_milnor(factor_int_poly(whole))
        certificate = next(c.certificate for c in null_cobordance_obstructions(diff).checks
                           if c.name == "fox-milnor")
        assert certificate.startswith(f"delta = {render_poly(whole.unit_normalize())}: ")

    @given(st.sampled_from((-1, 1)).flatmap(lambda eps: st.tuples(
        *[st.one_of(st.just(EpsForm(Matrix([], ncols=0), eps)), eps_forms(2, eps))] * 2)),
        st.randoms())
    def test_difference_matches_checked_form(self, forms, rnd):
        # a sum or negation holds its summands' block deltas unchecked; the
        # checked form of the same matrix takes its own pencils
        f, g = forms
        order = list(range(g.rank))
        rnd.shuffle(order)
        g = _permuted(g, order)
        diff = orthogonal_sum(f, negate(g))
        checked = EpsForm(_direct_sum(f.matrix, -g.matrix), f.eps)
        assert diff.matrix == checked.matrix and diff.eps == checked.eps
        assert diff.block_deltas == checked.block_deltas
        assert diff.alexander_raw == checked.alexander_raw
        assert diff.delta_factorization.product() == checked.delta_factorization.product()
        assert diff.isometric_structure == checked.isometric_structure
        assert negate(f).block_deltas == EpsForm(-f.matrix, f.eps).block_deltas

    @settings(max_examples=40)
    @given(eps_forms(2), st.randoms())
    def test_congruent_copy_is_never_refuted(self, f, rnd):
        p = random_unimodular(rnd, f.rank)
        copy = EpsForm(matrix=p.transpose() @ f.matrix @ p, eps=f.eps)
        verdict = algebraically_cobordant(f, copy, bound=1)
        assert verdict.status != "not-cobordant"
        if verdict.witness is not None:
            assert is_metaboliser(orthogonal_sum(f, negate(copy)), verdict.witness.basis)

    @given(eps_forms(3))
    def test_witness_is_metaboliser(self, f):
        result = search_metaboliser(f, 2)
        if result.found:
            assert is_metaboliser(f, result.witness.basis)

    @settings(max_examples=60)
    @given(eps_forms(4), st.sampled_from((1, 2)))
    def test_invariant_search_matches_hnf_walk(self, f, bound):
        # rank 8 walks only the bound-1 box: at bound 2 one walk takes
        # up to half a minute
        assume(f.rank <= 6 or bound == 1)
        assume(_invariant_metabolisers(f) is not None)
        result = search_metaboliser(f, bound)
        first = _first_hnf_hit(f, bound)
        if first is not None:
            assert result.found and result.witness.basis == first
        elif result.found:
            # complete search: a witness exists, just not inside the box
            assert max(abs(x) for row in result.witness.basis for x in row) > bound
            assert is_metaboliser(f, result.witness.basis)
        else:
            assert result.status == "not-found-within-bound"

    @settings(max_examples=60)
    @given(eps_forms(4))
    def test_invariant_metabolisers_match_horner(self, f):
        # shared powers of T and saturated sums of kernels against Horner's
        # rule and one Smith form per product of factors
        expected = invariant_metabolisers_horner(f)
        assume(expected is not None)
        assert _invariant_metabolisers(f) == expected

    @given(eps_forms(4))
    @example(HYPERBOLIC_FORM)
    @example(EpsForm(Matrix([[0, 0, 1, 0], [0, 0, 0, 1],
                                       [0, 0, 1, 1], [0, 0, 0, 2]]), -1))
    def test_homogeneous_factors_multiply_to_chi_t(self, f):
        b = symmetrization(f)
        t = inverse_gauss_jordan(b) @ f.matrix
        chi = Laurent.from_coeff_list(
            pencil_det_coefficients(Matrix.identity(f.rank), -t))
        product = Laurent.one()
        for g, mult in _chi_factors(f.delta_factorization, f.rank):
            product = product * g ** mult
        assert product in (chi, -chi)

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                    min_size=1, max_size=3), st.randoms())
    def test_row_hnf_is_a_lattice_invariant(self, rows, rnd):
        m = Matrix(rows, ncols=5)
        assume(all(smith_normal_form(m)))  # independent rows
        hnf = _row_hnf(m.rows)
        assert _row_hnf((random_unimodular(rnd, m.nrows) @ m).rows) == hnf
        assert_row_hnf(hnf)
        # same lattice: the stacked rows have the Smith form of m alone
        assert smith_normal_form(Matrix(hnf + m.rows, ncols=5))[:m.nrows] == \
            smith_normal_form(m)


def assert_row_hnf(hnf):
    # echelon rows with positive pivots, entries above a pivot in [0, pivot)
    pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
    assert pivots == sorted(set(pivots))
    for i, (row, j) in enumerate(zip(hnf, pivots)):
        assert row[j] > 0
        assert all(0 <= hnf[k][j] < row[j] for k in range(i))
        assert all(hnf[k][j] == 0 for k in range(i + 1, len(hnf)))


def same_lattice(g1, g2, n: int) -> bool:
    """Whether two generating sets of vectors of length n span one lattice.
    The nonzero invariant factors of a generating set give the rank of its
    lattice L and the order of the torsion of Z^n / L, the index of L in
    its saturation.  L1 + L2 holds L1, so with the same rank and index the
    two are equal."""
    def rank_and_index(rows):
        factors = [d for d in smith_normal_form(Matrix([list(x) for x in rows], ncols=n)) if d]
        return len(factors), prod(factors)
    return rank_and_index(g1) == rank_and_index(g2) == rank_and_index(list(g1) + list(g2))


@st.composite
def integer_matrices(draw):
    """k x n integer matrices, k and n in 1..8, entries in -3..3; about half
    of them have a last row that depends on the others."""
    k, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    if draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        rows[-1] = [c * x - y for x, y in zip(rows[0], rows[-2])] if k > 1 else [0] * n
    return rows


class TestLatticeKernel:
    @given(integer_matrices())
    def test_integer_kernel_matches_smith_oracle(self, m):
        n = len(m[0])
        kernel = _integer_kernel(m)
        for x in kernel:
            assert len(x) == n
            assert all(sum(map(mul, row, x)) == 0 for row in m)
        assert_row_hnf(kernel)
        oracle = integer_kernel_smith(m)
        assert len(kernel) == len(oracle)
        assert same_lattice(kernel, oracle, n)

    @given(integer_matrices())
    def test_row_hnf_of_any_generating_set(self, rows):
        n = len(rows[0])
        hnf = _row_hnf(rows)
        assert_row_hnf(hnf)
        assert all(any(row) for row in hnf)
        oracle = lattice_basis_smith(rows, n)
        assert len(hnf) == len(oracle)
        assert same_lattice(hnf, oracle, n)
        assert _row_hnf(oracle) == hnf

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.randoms())
    @example([[2, 1], [1, 1]], random.Random(0))
    @example([[1, 2], [2, 4]], random.Random(0))
    def test_purity_matches_smith_form(self, y, rnd):
        # A = [[0, I], [0, 0]] vanishes on the first n coordinates, so on
        # X0 = [Y | 0] is_metaboliser is the purity test alone; a unimodular
        # g moves A to g^T A g and X0 to X = X0 g^-T, a metaboliser of the
        # moved form exactly when X0 is one of A
        n = len(y)
        a = Matrix([[int(j == i + n) for j in range(2 * n)] for i in range(2 * n)])
        g = random_unimodular(rnd, 2 * n, steps=12)
        x = Matrix([row + [0] * n for row in y]) @ inverse(g).transpose()
        pure = set(smith_normal_form(x)) == {1}
        assert is_metaboliser(EpsForm(g.transpose() @ a @ g, -1), x.rows) == pure


class TestMirrorPairing:
    @given(eps_forms(4))
    def test_delta_is_eps_reciprocal(self, f):
        # delta(t) = (eps t)^n delta(1/t) with n even: the coefficients of t^k
        # and t^(n - k) agree, so the t-power equals the degree drop
        delta = f.alexander_raw
        assert all(delta.coefficient(f.rank - e) == c for e, c in delta.coeffs.items())
        assert f.delta_factorization.unit_exponent == f.rank - delta.max_exponent

    @settings(max_examples=150)
    @given(st.one_of(eps_forms(4), st.sampled_from((-1, 1)).flatmap(
        lambda eps: st.tuples(eps_forms(2, eps), eps_forms(2, eps)).map(
            lambda forms: orthogonal_sum(forms[0], negate(forms[1]))))))
    def test_squarefree_metaboliser_exactly_when_battery_passes(self, f):
        # a squarefree chi_T has a metaboliser exactly when no factor is its
        # own mirror, which the battery's Fox-Milnor check decides; there is
        # then one metaboliser per choice of a kernel from each mirror pair
        found = _invariant_metabolisers(f)
        assume(found is not None)
        chi = _chi_factors(f.delta_factorization, f.rank)
        assert bool(found) == null_cobordance_obstructions(f).all_pass
        if found:
            assert len(chi) % 2 == 0 and len(found) == 2 ** (len(chi) // 2)

    def test_hyperbolic_pairs_t_power_with_degree_drop(self):
        # delta = t: ker(T - I) from the t-power, then ker T from the drop
        assert _invariant_metabolisers(HYPERBOLIC_FORM) == [((0, 1),), ((1, 0),)]

    def test_trefoil_factor_is_its_own_mirror(self):
        assert _invariant_metabolisers(TREFOIL_FORM) == []  # 1 - t + t^2

    def test_trefoil_difference_is_not_squarefree(self):
        diff = orthogonal_sum(TREFOIL_FORM, negate(TREFOIL_FORM))
        assert _invariant_metabolisers(diff) is None


def _with_congruent_copy(f: EpsForm, rnd) -> EpsForm:
    p = random_unimodular(rnd, f.rank)
    return orthogonal_sum(f, negate(EpsForm(matrix=p.transpose() @ f.matrix @ p, eps=f.eps)))


def _isotropic_rows_of(f: EpsForm, bound: int, pivot_cols, pivot_vals):
    a, t = f.matrix.rows, f.isometric_structure
    return _isotropic_rows(a, t, _isotropy_forms(a, t), bound, tuple(pivot_cols),
                           tuple(pivot_vals))


# forms from the seed-1 cobordance corpus whose bound-2 row lists reach
# every branch of _isotropic_rows' solve: a difference A (+) -B or one form
# A, with the x^2 coefficients of the two sieve forms in the last column
# (cc_1, cc_2) both zero, zero and not, not and zero, neither zero
SOLVE_FORMS = [
    EpsForm(_direct_sum(Matrix([[2, 1], [0, 0]]), -Matrix([[1, -1], [0, 0]])), -1),
    EpsForm(Matrix([[-1, -1, 1, 0], [-1, -2, 2, 0], [0, 1, -1, -1], [0, 1, 0, 0]]), 1),
    EpsForm(_direct_sum(Matrix([[0, 1], [0, 0]]), -Matrix([[0, 0], [1, -2]])), 1),
    EpsForm(_direct_sum(Matrix([[-1, 1], [2, 1]]), -Matrix([[-3, 0], [1, 1]])), -1),
]
# genus-3 forms of the same corpus: some sieve survivors fail at T^2 v
P121_A = EpsForm(Matrix([[1, 0, 2, 0, -1, -3], [1, 1, 2, 0, -1, -1], [2, 1, 4, 0, -2, -5],
                         [0, -1, 0, 0, -1, -3], [-1, 0, -3, 0, -1, 2],
                         [-3, 1, -6, -1, 1, 8]]), -1)
P131_A = EpsForm(Matrix([[0, 0, 1, 0, -2, 0], [0, 0, 1, -2, 0, 1], [0, 0, 1, 1, -1, 1],
                         [0, 1, -1, 0, 2, 1], [1, 0, -1, -3, 2, -1],
                         [0, -1, -1, -1, 2, 0]]), 1)


class TestPrunedWalk:
    @settings(max_examples=150)
    @given(eps_forms(3), st.randoms(), st.booleans(), st.sampled_from((1, 2)))
    def test_metabolisers_match_unpruned_walk(self, f, rnd, doubled, bound):
        # the T-pruning drops only bases no metaboliser has, so the first
        # metaboliser of the walk, or its absence, is unchanged; at rank
        # <= 4 so is every later one.  Rank 8 (a form of rank 4 against a
        # congruent copy) walks the bound-1 box.
        if doubled and f.rank <= 4:
            f = _with_congruent_copy(f, rnd)
        if f.rank == 8:
            bound = 1
        pruned = _metabolisers(f, bound, walk=_enumerate_hnf)
        unpruned = _metabolisers(f, bound)
        if f.rank <= 4:
            assert list(pruned) == list(unpruned)
        else:
            assert next(pruned, None) == next(unpruned, None)

    def test_later_pivot_values_kept_apart(self):
        # the second metaboliser has pivot 2 in its second row, where the
        # later rows with pivot values (1, 1) admit no compatible choice
        f = EpsForm(Matrix([[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, -1],
                                      [0, 0, 0, 1, -1, 2], [0, 0, -1, 1, 0, 0],
                                      [0, 1, 1, 2, 0, -1], [0, 1, -1, 2, -1, 1]]), 1)
        expected = [((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
                    ((1, 0, 0, 0, 0, 0), (0, 2, -1, 0, 0, 1), (0, 0, 0, 0, 1, 0))]
        assert list(_metabolisers(f, 2)) == expected
        assert list(_metabolisers(f, 2, walk=_enumerate_hnf)) == expected

    @given(eps_forms(2))
    def test_form_against_itself_is_cobordant(self, f):
        # the diagonal {(x, x)} is a metaboliser of f (+) -f with a basis in
        # the bound-1 box; chi_T has every factor twice, so this is the walk
        verdict = algebraically_cobordant(f, f, bound=1)
        assert verdict.status == "cobordant"
        assert is_metaboliser(orthogonal_sum(f, negate(f)), verdict.witness.basis)

    @given(eps_forms(4), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
    def test_isotropy_numbers_recurrence(self, f, entries):
        # c_m = v^T B T^m v obeys c_m = eps sum_i C(m, i) (-1)^i c_i, since
        # T^T B = B (I - T); so c_2 = c_1 when eps = -1
        v = entries[:f.rank]

        def at_v(m):
            return sum(x * mij * y for x, row in zip(v, m.rows) for mij, y in zip(row, v))

        t = Matrix(f.isometric_structure)
        c, power = [], Matrix.identity(f.rank)
        for _ in range(f.rank + 2):
            c.append(at_v(symmetrization(f) @ power))
            power = power @ t
        for m, cm in enumerate(c):
            assert cm == f.eps * sum(comb(m, i) * (-1) ** i * c[i] for i in range(m + 1))
        if f.eps == -1:
            assert at_v(f.matrix @ t) == at_v(f.matrix)

    @settings(max_examples=60)
    @given(eps_forms(4), st.sampled_from((1, 2)), st.data())
    def test_isotropic_rows_match_box_oracle(self, f, bound, data):
        # the two quadratic filters drop only rows whose cyclic span is not
        # isotropic, and each kept row comes with its powers v, Tv, ...;
        # rank 8 sweeps the bound-1 box only (5^7 rows at bound 2)
        assume(f.rank <= 6 or bound == 1)
        half = f.rank // 2
        pivot_cols = sorted(data.draw(st.permutations(range(f.rank)))[:half])
        i = data.draw(st.integers(0, half - 1))
        pivot_vals = data.draw(st.lists(st.integers(1, bound), min_size=half - i,
                                        max_size=half - i))
        rows = _isotropic_rows_of(f, bound, pivot_cols[i:], pivot_vals)
        expected = isotropic_rows_box(f, bound, pivot_cols[i:], pivot_vals)
        assert [row for row, _ in rows] == [row for row, _ in expected]
        assert [krylov for _, krylov in rows] == [krylov for _, krylov in expected]

    def test_isotropic_rows_reach_every_branch(self):
        # every configuration of SOLVE_FORMS in the bound-2 box against the
        # oracle, rows and powers alike; together they reach each branch of
        # the solve for the last entry x: each zero pattern of the x^2
        # coefficients cc_1, cc_2 of the two sieve forms (one elimination
        # each), each also at some setting of the other entries where
        # P = M x + N vanishes at x = 0 and x = 1, so M = N = 0 (the
        # fallback), zero to three free entries (z, y and x are solved, the
        # others stepped), and entries in [0, 2) above a later pivot 2
        reached = set()
        for f in SOLVE_FORMS:
            a, half = f.matrix.rows, f.rank // 2
            forms = _isotropy_forms(a, f.isometric_structure)
            c = f.rank - 1
            cc1, cc2 = forms[0][c][c], forms[1][c][c]
            weights = (cc2, -cc1) if cc1 or cc2 else (1, 0)

            def p_at(v):
                return sum(w * sum(x * sum(map(mul, row, v)) for x, row in zip(v, s))
                           for w, s in zip(weights, forms))

            for pivot_cols in combinations(range(f.rank), half):
                for i in range(half):
                    for pivot_vals in product((1, 2), repeat=half - i):
                        rows = _isotropic_rows_of(f, 2, pivot_cols[i:], pivot_vals)
                        assert rows == isotropic_rows_box(f, 2, pivot_cols[i:], pivot_vals)
                        jpiv = pivot_cols[i]
                        free = c - jpiv
                        reached.add(("free entries", min(free, 3)))
                        if free:
                            zeros = (cc1 == 0, cc2 == 0)
                            reached.add(zeros)
                            later = dict(zip(pivot_cols[i + 1:], pivot_vals[1:]))
                            swept = product(*[range(later[j]) if j in later else range(-2, 3)
                                              for j in range(jpiv + 1, c)])
                            if any(p_at([0] * jpiv + [pivot_vals[0], *head, 0]) ==
                                   p_at([0] * jpiv + [pivot_vals[0], *head, 1]) == 0
                                   for head in swept):
                                reached.add((zeros, "M = N = 0"))
                        if 2 in pivot_vals[1:]:
                            reached.add("a later pivot 2")
        patterns = set(product((False, True), repeat=2))
        assert reached == ({("free entries", k) for k in range(4)} | {"a later pivot 2"}
                           | patterns | {(zeros, "M = N = 0") for zeros in patterns})

    @pytest.mark.parametrize("f,pivot_cols", [(P121_A, (0, 2, 3)), (P131_A, (0, 1, 2))])
    def test_isotropic_rows_check_t2_v(self, f, pivot_cols):
        # rank 6: the sieve proves Q_A(v) = Q_A(Tv) = 0 only, and some row of
        # this box passes it with Q_A(T^2 v) != 0, which drops it
        rows = _isotropic_rows_of(f, 1, pivot_cols, (1, 1, 1))
        assert rows == isotropic_rows_box(f, 1, pivot_cols, (1, 1, 1))
        a, t = f.matrix.rows, f.isometric_structure
        forms = _isotropy_forms(a, t)
        # the bound-1 box: entries in [-1, 1], and 0 above a later pivot 1
        box = [(0,) * pivot_cols[0] + (1,) + tail
               for tail in product(*[range(1) if j in pivot_cols else range(-1, 2)
                                     for j in range(pivot_cols[0] + 1, f.rank)])]
        sieved = [v for v in box
                  if not any(sum(x * sum(map(mul, s_row, v)) for x, s_row in zip(v, s))
                             for s in forms)]
        assert len(sieved) > len(rows)

    @settings(max_examples=300)
    @given(eps_forms(8), st.lists(st.integers(-2, 2), min_size=16, max_size=16))
    def test_cyclic_span_matches_oracle(self, f, entries):
        # Q_A on v, Tv, ..., T^(r/2 - 1) v decides isotropy of the whole
        # cyclic span, for either sign, and the powers are the span's
        v = entries[:f.rank]
        a, t = f.matrix.rows, f.isometric_structure
        krylov = _cyclic_span(_nonzeros(a), _nonzeros(t), v)
        assert (krylov is not None) == cyclic_span_isotropic(a, t, v)
        if krylov is not None:
            assert len(krylov) == f.rank // 2
            w = Matrix([[x] for x in v], ncols=1)
            for power in krylov:
                assert power == [row[0] for row in w.rows]
                w = Matrix(t) @ w

    @pytest.mark.parametrize("v", [(1, 1), (1, -1)])
    def test_cyclic_span_checks_v_itself(self, v):
        # rank 2: v is the only check, and here Q_A(v) = v_1 v_2 = +-1 with
        # Q_A(Tv) = 0, so a check from Tv on would keep v
        a, t = HYPERBOLIC_FORM.matrix.rows, HYPERBOLIC_FORM.isometric_structure
        assert not cyclic_span_isotropic(a, t, v)
        a, t = _nonzeros(a), _nonzeros(t)
        assert _cyclic_span(a, t, list(v)) is None
        assert _cyclic_span(a, t, [1, 0]) == [[1, 0]]

    @settings(max_examples=150)
    @given(eps_forms(3), st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    def test_sieve_forms(self, f, entries):
        # _isotropy_forms gives 2 Q_A(v) and 2 Q_A(Tv); on the zeros of
        # Q_A(v), Q_A(Tv) is -c_2 / 2 = -v^T A T v / 2 (eps = +1) or
        # -c_3 = -v^T A T^2 v (eps = -1), so it vanishes exactly where they do
        v = Matrix([[x] for x in entries[:f.rank]], ncols=1)
        a, t = f.matrix, Matrix(f.isometric_structure)

        def q(m, w=v):
            return (w.transpose() @ m @ w).rows[0][0]

        forms = [Matrix(s) for s in _isotropy_forms(a.rows, t.rows)]
        assert [q(s) for s in forms] == [2 * q(a), 2 * q(a, t @ v)]
        assume(q(a) == 0)
        if f.eps == 1:
            assert 2 * q(a, t @ v) == -q(a @ t)
        else:
            assert q(a, t @ v) == -q(a @ t @ t)


def _closing_row(f: EpsForm, basis) -> int:
    """The index of the row at which the joint cyclic span of the rows
    from the last one back reaches half the rank."""
    span = ((), ())
    a, t = _nonzeros(f.matrix.rows), _nonzeros(f.isometric_structure)
    for i in range(len(basis) - 1, -1, -1):
        span = _joint_span(span, _cyclic_span(a, t, list(basis[i])))
        if len(span[0]) == f.rank // 2:
            return i
    raise AssertionError("the rows span less than half the rank")


@pytest.fixture()
def row_lists(monkeypatch):
    """The (pivot columns, pivot values) of every row list the walk builds."""
    keys = []
    build = cobordism._isotropic_rows

    def counted(*args):
        keys.append(args[-2:])
        return build(*args)

    monkeypatch.setattr(cobordism, "_isotropic_rows", counted)
    return keys


# f (+) -f for a genus-2 f: of its three metabolisers in the bound-1 box, the
# first two have a last row whose cyclic span has dimension 4 = rank/2; in
# the third the joint span of the rows stays below it until the first row
MIXED_F = EpsForm(Matrix([[0, 0, 0, -1], [0, 0, -1, -3], [-1, -2, -1, -3],
                          [-3, -6, -4, -11]]), -1)


class TestSpanClosure:
    @settings(max_examples=40)
    @given(st.sampled_from((-1, 1)).flatmap(
        lambda eps: st.tuples(eps_forms(2, eps), eps_forms(1, eps))), st.randoms())
    def test_metabolisers_match_unpruned_walk(self, forms, rnd):
        # f (+) -P^T f P, and (+) g (+) -g when f has genus 1 (rank <= 8),
        # in shuffled coordinates: a closed last row and a walked one both
        # yield their metabolisers at their place in the walk
        f, g = forms
        h = _with_congruent_copy(f, rnd)
        if f.rank == 2:
            h = orthogonal_sum(h, orthogonal_sum(g, negate(g)))
        order = list(range(h.rank))
        rnd.shuffle(order)
        h = _permuted(h, order)
        assert list(_metabolisers(h, 1, walk=_enumerate_hnf)) == list(_metabolisers(h, 1))

    def test_mixed_last_rows_keep_the_unpruned_order(self, row_lists):
        f = orthogonal_sum(MIXED_F, negate(MIXED_F))
        closed = list(_metabolisers(f, 1, walk=_enumerate_hnf))
        assert closed == list(_metabolisers(f, 1))
        assert [_closing_row(f, basis) for basis in closed] == [3, 3, 0]
        # the third one is closed only at its first row, so that row's list
        # is built for its configuration
        cols, vals = _hnf_key(closed[2])[:2]
        assert (cols, vals) in row_lists

    @settings(max_examples=20)
    @given(eps_forms(2).filter(lambda f: f.rank == 4), st.randoms())
    def test_rank8_sums_match_unpruned_walk(self, f, rnd):
        # f (+) -P^T f P for a genus-2 f: every metaboliser of the bound-1
        # box, in order, whichever row its joint span closes on
        h = _with_congruent_copy(f, rnd)
        assert list(_metabolisers(h, 1, walk=_enumerate_hnf)) == list(_metabolisers(h, 1))

    @given(st.integers(1, 3).flatmap(lambda k: st.integers(k, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=k, max_size=k))), st.integers(1, 3))
    def test_saturation_matches_smith_route(self, rows, scale):
        rows[0] = [scale * x for x in rows[0]]
        assume(all(smith_normal_form(Matrix(rows))))  # independent rows
        saturated = _saturation(*_span_echelon(rows))
        assert saturated == _row_hnf(saturation_smith(rows))
        assert set(smith_normal_form(Matrix(saturated))) == {1}

    @given(st.integers(1, 3).flatmap(lambda k: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                           min_size=k, max_size=k))))
    def test_span_echelon_is_the_rational_hnf(self, rows):
        echelon = _span_echelon(rows)
        if sum(1 for x in smith_normal_form(Matrix(rows)) if x) < len(rows):
            assert echelon is None  # dependent rows
            return
        cols, reduced = echelon
        hnf = _row_hnf(rows)
        assert cols == tuple(next(j for j, x in enumerate(row) if x) for row in hnf)
        for row, c in zip(reduced, cols):
            assert row[c] > 0 and gcd(*row) == 1
            assert all(row[j] == 0 for j in cols if j != c)
        # the same rational span: stacking adds no rank
        assert sum(1 for x in smith_normal_form(Matrix(rows + list(reduced))) if x) == len(rows)


# pair p109 of the seed-1 cobordance corpus: A (+) -B for two genus-2 forms
# with eps = +1 and the same delta; chi_T has the repeated factors x - 1 and
# x, and no single row's cyclic span has half the rank: the joint span of the
# rows of its metabolisers reaches it only at the first or second row
P109 = EpsForm(_direct_sum(Matrix([[1, 1, 1, -1], [-1, 1, 1, -1], [0, 1, 1, -1], [2, 0, 0, 0]]),
                           -Matrix([[0, 1, -1, -1], [-2, 0, 0, 1], [0, 0, 1, 1], [1, 0, 1, 0]])),
               1)
# its metabolisers in the bound-2 box in _hnf_key order, as listed by the walk
# that closed only on a last row
P109_BOX2 = [
    ((1, 0, -2, -1, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
    ((1, 1, -2, 0, 0, 0, 0, 0), (0, 2, -2, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
    ((1, 1, -1, 0, 0, 0, 0, 0), (0, 2, -1, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
    ((1, 0, -2, -1, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ((1, 1, -2, 0, 0, 0, 0, 0), (0, 2, -2, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ((1, 1, -1, 0, 0, 0, 0, 0), (0, 2, -1, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ((0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
    ((0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ((0, 1, -1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
    ((0, 1, -1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
]


# its metabolisers in the bound-3 box in _hnf_key order: P109_BOX2 and the
# four whose second row has pivot 3
P109_BOX3 = P109_BOX2[:3] + [
    ((1, 0, 0, -1, 0, 0, 0, 0), (0, 3, -2, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
    ((2, 0, -2, -1, 0, 0, 0, 0), (0, 3, -1, 2, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2, -1)),
] + P109_BOX2[3:6] + [
    ((1, 0, 0, -1, 0, 0, 0, 0), (0, 3, -2, 1, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ((2, 0, -2, -1, 0, 0, 0, 0), (0, 3, -1, 2, 0, 0, 0, 0),
     (0, 0, 0, 0, 1, 2, -1, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
] + P109_BOX2[6:]


class TestJointSpanClosure:
    def test_p109_box_metabolisers(self):
        assert _invariant_metabolisers(P109) is None  # the walk decides it
        assert list(_metabolisers(P109, 2, walk=_enumerate_hnf)) == P109_BOX2
        assert [_closing_row(P109, basis) for basis in P109_BOX2] == [0] * 8 + [1, 1]

    def test_p109_bound3_box_metabolisers(self):
        # an exhaustive walk of a real box: every metaboliser, in order
        assert P109_BOX3 == sorted(P109_BOX3, key=_hnf_key)
        assert list(_metabolisers(P109, 3, walk=_enumerate_hnf)) == P109_BOX3

    @pytest.mark.parametrize("bound", (2, 3, 4))
    def test_p109_witness(self, bound):
        result = search_metaboliser(P109, bound)
        assert result.found and result.witness.basis == P109_BOX2[0]

    @pytest.mark.parametrize("bound,most", [(2, 20), (4, 40)])
    def test_p109_row_lists_built(self, bound, most, row_lists):
        # a guard on the work, counted rather than timed: rebuilding the
        # earlier rows' lists for every pivot configuration took 127 lists
        # at bound 2 and 1035 at bound 4
        assert search_metaboliser(P109, bound).found
        assert len(row_lists) <= most
