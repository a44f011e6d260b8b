import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotforms.exact import Matrix, det, inverse
from knotforms.invariants import Invariants
from knotforms.laurent import Laurent, NormalizationError, conway_normalize, render_poly
from knotforms.seifert import (NonFiberedError, SeifertMatrix, alexander_polynomial,
                               characteristic_polynomial, intersection_form,
                               is_quasi_unipotent, knot_module, monodromy)

from generators import square_matrices
from oracles import inverse_gauss_jordan, laurent_det_cofactor

A1 = Matrix([[-1, 0], [1, -1]])
TREFOIL = SeifertMatrix(A1, q=1)
EMPTY = SeifertMatrix(Matrix([], ncols=0), q=1)


def random_seifert(rng, max_rank=4, q_choices=(1, 2, 3)):
    n = rng.randint(0, max_rank)
    a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], ncols=n)
    return SeifertMatrix(a, q=rng.choice(q_choices))


class TestIntersectionForm:
    def test_golden_q1(self):
        assert intersection_form(TREFOIL) == Matrix([[0, 1], [-1, 0]])

    def test_golden_q2(self):
        s = SeifertMatrix(A1, q=2)
        assert intersection_form(s) == Matrix([[-2, 1], [1, -2]])

    def test_empty(self):
        assert intersection_form(EMPTY) == Matrix([], ncols=0)

    def test_symmetry_by_parity(self):
        rng = random.Random(11)
        for _ in range(100):
            s = random_seifert(rng)
            i = intersection_form(s)
            if s.q % 2 == 0:
                assert i == i.transpose()
            else:
                assert i == -i.transpose()

    def test_symmetrization_identity(self):
        rng = random.Random(12)
        for _ in range(100):
            s = random_seifert(rng)
            a = s.matrix
            lhs = intersection_form(s).scale(s.epsilon)
            assert lhs == a + a.transpose().scale(s.epsilon)


class TestUnimodular:
    def test_trefoil(self):
        assert Invariants(TREFOIL).unimodular

    def test_zero_form(self):
        assert not Invariants(SeifertMatrix(Matrix([[0]]), q=1)).unimodular

    def test_unknot(self):
        assert Invariants(EMPTY).unimodular


class TestFibered:
    def test_trefoil(self):
        assert Invariants(TREFOIL).fibered

    def test_det_two(self):
        assert not Invariants(SeifertMatrix(Matrix([[2]]), q=1)).fibered

    def test_triangular(self):
        assert Invariants(SeifertMatrix(Matrix([[1, 1], [0, 1]]), q=1)).fibered


class TestMonodromy:
    def test_golden_q1(self):
        assert monodromy(TREFOIL) == Matrix([[0, 1], [-1, 1]])

    def test_golden_q2(self):
        assert monodromy(SeifertMatrix(A1, q=2)) == Matrix([[0, -1], [1, -1]])

    def test_one_variable_quadratic(self):
        # single variable z^2 (q = 0): monodromy is (-1)
        s = SeifertMatrix(Matrix([[1]]), q=0)
        assert monodromy(s) == Matrix([[-1]])

    def test_non_fibered_error(self):
        with pytest.raises(NonFiberedError):
            monodromy(SeifertMatrix(Matrix([[0]]), q=1))

    def test_unknot(self):
        assert monodromy(EMPTY) == Matrix([], ncols=0)

    @settings(max_examples=150)
    @given(st.integers(0, 6).flatmap(square_matrices), st.integers(0, 3))
    @example(Matrix([[2, 1], [0, 3]]), 1)
    def test_matches_inverse(self, a, q):
        # A^T h = -eps A, with h rational when det A is not +-1
        s = SeifertMatrix(a, q=q)
        if det(a) == 0:
            with pytest.raises(NonFiberedError):
                monodromy(s)
            return
        h = monodromy(s)
        assert a.transpose() @ h == a.scale(-s.epsilon)
        assert h == (inverse_gauss_jordan(a.transpose()) @ a).scale(-s.epsilon)
        if det(a) in (1, -1):
            assert h.is_integral

    def test_unimodular_monodromy_integral(self):
        rng = random.Random(14)
        found = 0
        while found < 50:
            s = random_seifert(rng)
            if not Invariants(s).fibered or s.rank == 0:
                continue
            found += 1
            h = monodromy(s)
            assert h.is_integral
            assert det(h) in (1, -1)
            assert h @ inverse(h) == Matrix.identity(s.rank)

    def test_char_poly_equals_alexander_up_to_unit(self):
        rng = random.Random(15)
        found = 0
        while found < 50:
            s = random_seifert(rng)
            if not Invariants(s).fibered:
                continue
            found += 1
            chi = characteristic_polynomial(monodromy(s))
            delta = alexander_polynomial(s)
            assert chi.unit_normalize() == delta.unit_normalize()


class TestCharacteristicPolynomial:
    @settings(max_examples=100)
    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(st.fractions(-4, 4, max_denominator=6),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_rational_matches_cofactor_oracle(self, rows):
        m = Matrix(rows, ncols=len(rows))
        n = m.nrows
        t_minus_m = [[Laurent({1: int(i == j), 0: -m[i, j]}) for j in range(n)]
                     for i in range(n)]
        assert characteristic_polynomial(m) == laurent_det_cofactor(t_minus_m)

    def test_rational_monodromy(self):
        h = monodromy(SeifertMatrix(Matrix([[2, 1], [0, 3]]), q=1))
        assert characteristic_polynomial(h) == Laurent({0: 1, 1: Fraction(-11, 6), 2: 1})


class TestAlexander:
    def test_trefoil_raw(self):
        assert alexander_polynomial(TREFOIL) == Laurent({0: 1, 1: -1, 2: 1})

    def test_trefoil_conway(self):
        assert (conway_normalize(alexander_polynomial(TREFOIL))
                == Laurent({-1: 1, 0: -1, 1: 1}))

    def test_unknot_conway(self):
        assert conway_normalize(alexander_polynomial(EMPTY)) == Laurent.one()

    def test_raw_matches_cofactor_oracle(self):
        from knotforms.laurent import pencil
        rng = random.Random(16)
        for _ in range(60):
            s = random_seifert(rng)
            rows = pencil(s.matrix, s.matrix.transpose().scale(s.epsilon))
            assert alexander_polynomial(s) == laurent_det_cofactor(rows)

    def test_specialization_at_one(self):
        rng = random.Random(17)
        for _ in range(60):
            s = random_seifert(rng)
            raw = alexander_polynomial(s)
            a = s.matrix
            assert raw(1) == det(a + a.transpose().scale(s.epsilon))

    def test_conway_symmetric_and_unit_at_one(self):
        rng = random.Random(18)
        found = 0
        while found < 60:
            s = random_seifert(rng)
            if not Invariants(s).unimodular:
                continue
            found += 1
            c = conway_normalize(alexander_polynomial(s))
            assert c(1) == 1
            assert c.reciprocal() == c

    def test_conway_error_on_non_spherical(self):
        with pytest.raises(NormalizationError):
            conway_normalize(alexander_polynomial(SeifertMatrix(Matrix([[0]]), q=1)))


class TestKnotModule:
    def test_trefoil_divisors(self):
        mod = knot_module(TREFOIL)
        assert [render_poly(d) for d in mod.divisors] == ["1 - t + t^2"]
        assert mod.is_torsion_over_qt

    def test_unknot(self):
        assert knot_module(EMPTY).divisors == ()

    def test_unipotent_seifert(self):
        mod = knot_module(SeifertMatrix(Matrix([[1, 1], [0, 1]]), q=1))
        assert [render_poly(d) for d in mod.divisors] == ["1 - t + t^2"]

    def test_free_rank_when_degenerate(self):
        mod = knot_module(SeifertMatrix(Matrix([[0]]), q=2))
        assert mod.free_rank_over_qt == 1
        assert not mod.is_torsion_over_qt


class TestQuasiUnipotent:
    def test_trefoil_monodromy(self):
        assert is_quasi_unipotent(Matrix([[0, 1], [-1, 1]]))

    def test_eigenvalue_two(self):
        assert not is_quasi_unipotent(Matrix([[2]]))

    def test_identity(self):
        assert is_quasi_unipotent(Matrix.identity(4))

    def test_rational_non_integral(self):
        from fractions import Fraction
        assert not is_quasi_unipotent(Matrix([[Fraction(1, 2)]]))

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        base = Matrix([[0, 1], [-1, 1]])
        for _ in range(30):
            # random unimodular integer conjugator from elementary moves
            p = Matrix.identity(2)
            for _ in range(rng.randint(1, 5)):
                c = rng.randint(-2, 2)
                e = Matrix([[1, c], [0, 1]]) if rng.random() < 0.5 else \
                    Matrix([[1, 0], [c, 1]])
                p = p @ e
            from knotforms.exact import inverse
            conj = inverse(p) @ base @ p
            assert is_quasi_unipotent(conj)
