import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotforms import cobordism
from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
from knotforms.cobordism import (EpsForm, EpsFormError, _chi_factors, _cyclic_span,
                                 _direct_sum, _enumerate_hnf, _hnf_key, _integer_roots,
                                 _invariant_metabolisers, _joint_span, _orthogonal_blocks,
                                 _row_hnf, _saturation, _span_echelon,
                                 algebraically_cobordant, eps_form_of, fox_milnor,
                                 is_metaboliser, negate, null_cobordance_obstructions,
                                 orthogonal_sum, search_metaboliser)
from knotforms.exact import Matrix, ShapeError, det, pencil_det_coefficients, smith_normal_form
from knotforms.laurent import Laurent, det_pencil, factor_int_poly
from knotforms.quadratic import signature

from generators import eps_forms, random_unimodular, square_matrices
from oracles import (brute_force_rank1_metaboliser_absent, enumerate_hnf_unpruned,
                     invariant_metabolisers_horner, inverse_gauss_jordan, saturation_smith)

A1 = Matrix([[-1, 0], [1, -1]])
TREFOIL_FORM = EpsForm(A1, -1)
HYPERBOLIC_FORM = EpsForm(Matrix([[0, 1], [0, 0]]), -1)
EMPTY_FORM = EpsForm(Matrix([], ncols=0), -1)


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

    @pytest.mark.parametrize("rows,eps,d", [([[-1]], 1, -2),
                                            ([[0, 1], [1, 1]], 1, -4),
                                            ([[0, 2], [0, 0]], -1, 4)])
    def test_non_unimodular_symmetrization_rejected(self, rows, eps, d):
        # |det B| > 1: T = B^-1 A would not be integral
        assert det(Matrix(rows) + Matrix(rows).transpose().scale(eps)) == d
        with pytest.raises(EpsFormError, match=f"determinant {d},"):
            EpsForm(Matrix(rows), eps)

    @given(st.sampled_from((1, 3, 5)).flatmap(square_matrices), st.sampled_from((-1, 1)))
    def test_odd_rank_rejected(self, a, eps):
        # B mod 2 is alternating, so det B is even at odd rank: no odd-rank
        # eps-form exists for a search or an obstruction to handle
        with pytest.raises(EpsFormError):
            EpsForm(a, eps)

    def test_lists_coerced_and_non_integers_rejected(self):
        assert EpsForm([[-1, 0], [1, -1]], -1) == TREFOIL_FORM
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

    def test_signature_additivity(self):
        f1 = EpsForm(upper_half(_e8()), 1)
        f2 = EpsForm(upper_half(Matrix([[0, 1], [1, 0]])), 1)
        s1 = signature(f1.symmetrization)
        s2 = signature(f2.symmetrization)
        diff = orthogonal_sum(f1, negate(f2))
        assert signature(diff.symmetrization) == s1 - s2


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
    """Count, per EpsForm stage, the matrices whose symmetrization is built
    (in calls.built), and the calls to adjugate_product and factor_int_poly
    through every knotforms binding."""
    calls = Counter()
    calls.built = []
    build = EpsForm.symmetrization.func

    def symmetrization(self):
        calls.built.append(self.matrix)
        return build(self)

    stage = cached_property(symmetrization)
    stage.__set_name__(EpsForm, "symmetrization")
    monkeypatch.setattr(EpsForm, "symmetrization", stage)
    for module, name in [("exact", "adjugate_product"), ("laurent", "factor_int_poly")]:
        original = getattr(sys.modules[f"knotforms.{module}"], name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
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
        # the difference is built and validated once, and the battery and
        # the search share its B, T and factorization of delta
        verdict = algebraically_cobordant(f1, f2, bound=2)
        matrix = _direct_sum(f1.matrix, -f2.matrix)
        assert stage_calls.built == [matrix]
        assert stage_calls["adjugate_product"] <= (verdict.obstruction is None)
        blocks = _orthogonal_blocks(EpsForm(matrix, f1.eps))
        assert stage_calls["factor_int_poly"] == len(blocks)


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
        assert fox_milnor(merged) == fox_milnor(factor_int_poly(whole))

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
        b = f.symmetrization
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
        pivots = [next(j for j, x in enumerate(row) if x) for row in hnf]
        assert pivots == sorted(set(pivots))
        for i, (row, j) in enumerate(zip(hnf, pivots)):
            assert row[j] > 0
            assert all(0 <= hnf[k][j] < row[j] for k in range(i))
            assert all(hnf[k][j] == 0 for k in range(i + 1, len(hnf)))
        # same lattice: the stacked rows have the Smith form of m alone
        assert smith_normal_form(Matrix(hnf + m.rows, ncols=5))[:m.nrows] == \
            smith_normal_form(m)


def _with_congruent_copy(f: EpsForm, rnd) -> EpsForm:
    p = random_unimodular(rnd, f.rank)
    return orthogonal_sum(f, negate(EpsForm(matrix=p.transpose() @ f.matrix @ p, eps=f.eps)))


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

    @given(st.integers(-4, 4), st.integers(-9, 9), st.integers(-20, 20),
           st.integers(-6, 3), st.integers(0, 8))
    def test_integer_roots_match_brute_force(self, a, b, c, lo, width):
        hi = lo + width
        assert _integer_roots(a, b, c, lo, hi) == [
            x for x in range(lo, hi) if a * x * x + b * x + c == 0]


def _closing_row(f: EpsForm, basis) -> int:
    """The index of the row at which the joint cyclic span of the rows
    from the last one back reaches half the rank."""
    at = [list(col) for col in zip(*f.matrix.rows)]
    span = ((), ())
    for i in range(len(basis) - 1, -1, -1):
        span = _joint_span(span, _cyclic_span(at, f.isometric_structure, list(basis[i])))
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


class TestJointSpanClosure:
    def test_p109_box_metabolisers(self):
        assert _invariant_metabolisers(P109) is None  # the walk decides it
        assert list(_metabolisers(P109, 2, walk=_enumerate_hnf)) == P109_BOX2
        assert [_closing_row(P109, basis) for basis in P109_BOX2] == [0] * 8 + [1, 1]

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
