import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
from knotforms.exact import Matrix, det
from knotforms.quadratic import (DegenerateFormError, ParityError, QuadraticFormF2,
                                 arf, is_even, karl, levine_congruence_check,
                                 signature, symplectic_basis_f2)
from knotforms.seifert import SeifertMatrix, intersection_form

from generators import brieskorn_germs, random_unimodular
from oracles import (float_signature, signature_congruence, signature_descartes,
                     symplectic_basis_f2_tuples)

# E8 Dynkin diagram: chain 1..7 with node 8 attached to node 3
# (arm lengths 2, 4, 1 around the trivalent node)
E8 = Matrix([
    [2, 1, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0],
    [0, 1, 2, 1, 0, 0, 0, 1],
    [0, 0, 1, 2, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 0, 0],
    [0, 0, 0, 0, 1, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 0],
    [0, 0, 1, 0, 0, 0, 0, 2],
])

HYPERBOLIC = Matrix([[0, 1], [1, 0]])


def assert_matches_oracles(m):
    assert signature(m) == signature_descartes(m) == signature_congruence(m)


def random_symmetric(rng, n, lo=-4, hi=4):
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = rng.randint(lo, hi)
    return Matrix(entries, ncols=n)


class TestSignature:
    def test_indefinite_diag(self):
        assert signature(Matrix([[1, 0], [0, -1]])) == 0

    def test_negative_definite(self):
        m = Matrix([[-2, 1], [1, -2]])
        assert signature(m) == -2
        assert signature(m) == float_signature(m)

    def test_e8(self):
        assert det(E8) == 1
        assert signature(E8) == 8
        assert signature(E8) == float_signature(E8)

    def test_empty(self):
        assert signature(Matrix([], ncols=0)) == 0

    def test_zero_diagonal_block(self):
        assert signature(HYPERBOLIC) == 0

    def test_matches_float_oracle(self):
        rng = random.Random(808)
        for _ in range(150):
            m = random_symmetric(rng, rng.randint(0, 5))
            assert signature(m) == float_signature(m)

    @settings(max_examples=150)
    @given(st.integers(0, 10).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.integers(0, n))))
    def test_matches_congruence_oracle(self, data):
        # symmetric, n <= 10, entries up to +-50; the last k coordinates
        # repeat earlier ones (or vanish when k = n), so the rank is <= n - k
        full, k = data
        n = len(full)
        idx = [i if i < n - k else i % (n - k) if k < n else None for i in range(n)]
        m = Matrix([[0 if i is None or j is None else full[min(i, j)][max(i, j)]
                     for j in idx] for i in idx], ncols=n)
        assert_matches_oracles(m)

    def test_rational(self):
        m = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-5, 7)]])
        assert signature(m) == signature_descartes(m) == signature_congruence(m) == 0

    @settings(max_examples=80)
    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.lists(st.fractions(-9, 9, max_denominator=6), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_rational_matches_oracles(self, full):
        n = len(full)
        assert_matches_oracles(Matrix([[full[min(i, j)][max(i, j)] for j in range(n)]
                                       for i in range(n)], ncols=n))

    @settings(max_examples=100)
    @given(st.integers(2, 9).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_zero_diagonal_matches_oracles(self, full):
        # no diagonal pivot at the first step: the row-and-column fix-up runs
        n = len(full)
        assert_matches_oracles(Matrix([[0 if i == j else full[min(i, j)][max(i, j)]
                                        for j in range(n)] for i in range(n)], ncols=n))

    @settings(max_examples=60)
    @given(st.lists(st.integers(-5, 5).filter(bool), min_size=1, max_size=4),
           st.integers(0, 2), st.randoms(use_true_random=False))
    def test_hyperbolic_sums(self, scales, zeros, rnd):
        # sum of c * HYPERBOLIC blocks and a zero block, coordinates shuffled:
        # every diagonal stays 0, and the fix-up runs once per block
        n = 2 * len(scales) + zeros
        rows = [[0] * n for _ in range(n)]
        for b, c in enumerate(scales):
            rows[2 * b][2 * b + 1] = rows[2 * b + 1][2 * b] = c
        order = list(range(n))
        rnd.shuffle(order)
        m = Matrix([[rows[i][j] for j in order] for i in order], ncols=n)
        assert signature(m) == 0
        assert_matches_oracles(m)

    @settings(max_examples=40)
    @given(brieskorn_germs(max_milnor=64))
    def test_germ_intersection_forms(self, germ):
        # a trailing square adds a variable and keeps the Milnor number, so
        # every drawn germ gives a symmetric (even q) intersection form
        s = brieskorn_seifert(germ)
        if s.q % 2:
            s = brieskorn_seifert(BrieskornGerm(germ.exponents + (2,)))
        assert_matches_oracles(intersection_form(s))

    def test_congruence_invariance(self):
        rng = random.Random(809)
        for _ in range(80):
            n = rng.randint(1, 4)
            m = random_symmetric(rng, n)
            p = random_unimodular(rng, n)
            assert signature(p.transpose() @ m @ p) == signature(m)

    def test_bounded_by_rank(self):
        rng = random.Random(810)
        for _ in range(80):
            n = rng.randint(0, 5)
            m = random_symmetric(rng, n)
            assert abs(signature(m)) <= n

    def test_even_unimodular_divisible_by_8(self):
        rng = random.Random(811)
        blocks = [E8, HYPERBOLIC]
        for _ in range(40):
            pieces = [rng.choice(blocks) for _ in range(rng.randint(1, 2))]
            n = sum(b.nrows for b in pieces)
            rows = [[0] * n for _ in range(n)]
            offset = 0
            for b in pieces:
                for i in range(b.nrows):
                    for j in range(b.ncols):
                        rows[offset + i][offset + j] = b.rows[i][j]
                offset += b.nrows
            m = Matrix(rows, ncols=n)
            p = random_unimodular(rng, n)
            m = p.transpose() @ m @ p
            assert det(m) in (1, -1)
            assert is_even(m)
            assert signature(m) % 8 == 0


class TestIsEven:
    def test_even(self):
        assert is_even(Matrix([[2, 1], [1, 2]]))

    def test_odd(self):
        assert not is_even(Matrix([[1]]))

    def test_empty(self):
        assert is_even(Matrix([], ncols=0))


class TestSymplecticBasis:
    def test_single_hyperbolic(self):
        pairs = symplectic_basis_f2(Matrix([[0, 1], [1, 0]]))
        assert pairs == [((1, 0), (0, 1))]

    def test_two_hyperbolics(self):
        b = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        pairs = symplectic_basis_f2(b)
        assert len(pairs) == 2

    def test_degenerate(self):
        with pytest.raises(DegenerateFormError) as exc:
            symplectic_basis_f2(Matrix.zero(2, 2))
        assert exc.value.radical_vector is not None

    @settings(max_examples=120)
    @given(st.integers(0, 16).flatmap(
        lambda n: st.lists(st.integers(-3, 3), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2).map(lambda xs: (n, xs))))
    def test_matches_tuple_oracle(self, n_entries):
        # random alternating forms, degenerate ones included: the same pairs,
        # or the same radical vector
        n, xs = n_entries
        entries = [[0] * n for _ in range(n)]
        upper = ((i, j) for i in range(n) for j in range(i + 1, n))
        for (i, j), x in zip(upper, xs):
            entries[i][j] = entries[j][i] = x
        b = Matrix(entries, ncols=n)
        try:
            expected = symplectic_basis_f2_tuples(b)
        except DegenerateFormError as exc:
            with pytest.raises(DegenerateFormError) as got:
                symplectic_basis_f2(b)
            assert got.value.radical_vector == exc.radical_vector
        else:
            assert symplectic_basis_f2(b) == expected

    def test_pairing_normal_form(self):
        rng = random.Random(900)
        for _ in range(40):
            # random nondegenerate alternating form: congruent image of the
            # standard symplectic form
            r = rng.randint(1, 3)
            n = 2 * r
            std = [[0] * n for _ in range(n)]
            for i in range(r):
                std[2 * i][2 * i + 1] = 1
                std[2 * i + 1][2 * i] = 1
            p = random_unimodular(rng, n)
            b = (p.transpose() @ Matrix(std, ncols=n) @ p).entries_mod(2)
            if det(b) % 2 == 0:
                continue
            pairs = symplectic_basis_f2(b)
            assert len(pairs) == r
            rows = b.rows
            def pairing(x, y):
                return sum(x[i] * rows[i][j] * y[j]
                           for i in range(n) for j in range(n)) % 2
            for a, (e, f) in enumerate(pairs):
                assert pairing(e, f) == 1
                for c, (e2, f2) in enumerate(pairs):
                    if a != c:
                        assert pairing(e, e2) == 0
                        assert pairing(e, f2) == 0
                        assert pairing(f, f2) == 0


class TestArf:
    def test_rank2_values(self):
        b = Matrix([[0, 1], [1, 0]])
        assert arf(QuadraticFormF2(values=(1, 1), bilinear=b)) == 1
        assert arf(QuadraticFormF2(values=(0, 0), bilinear=b)) == 0
        assert arf(QuadraticFormF2(values=(1, 0), bilinear=b)) == 0

    def test_rank4(self):
        b = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        q = QuadraticFormF2(values=(1, 1, 0, 0), bilinear=b)
        assert arf(q) == 1

    def test_basis_independence(self):
        rng = random.Random(901)
        b = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        for _ in range(40):
            values = tuple(rng.randint(0, 1) for _ in range(4))
            q = QuadraticFormF2(values=values, bilinear=b)
            reference = arf(q)
            p = random_unimodular(rng, 4)
            if det(p.entries_mod(2)) % 2 == 0:
                continue
            # transport q along the change of basis x -> P x
            cols = [tuple(p.rows[i][j] % 2 for i in range(4)) for j in range(4)]
            new_b = (p.transpose() @ b @ p).entries_mod(2)
            new_values = tuple(q(col) for col in cols)
            q2 = QuadraticFormF2(values=new_values, bilinear=new_b)
            assert arf(q2) == reference


class TestKarl:
    def test_trefoil_variants(self):
        assert karl(SeifertMatrix(Matrix([[-1, 1], [0, -1]]), q=1)) == 1
        assert karl(SeifertMatrix(Matrix([[-1, 0], [1, -1]]), q=1)) == 1

    def test_unknot(self):
        assert karl(SeifertMatrix(Matrix([], ncols=0), q=1)) == 0

    def test_arf_zero_form(self):
        # even diagonal entry kills the e-term of the single product
        assert karl(SeifertMatrix(Matrix([[0, 1], [0, 1]]), q=1)) == 0

    def test_even_q_rejected(self):
        with pytest.raises(ParityError):
            karl(SeifertMatrix(Matrix([[1]]), q=2))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            karl(SeifertMatrix(Matrix([[0]]), q=1))

    def test_nonzero_even_det_rejected(self):
        # intersection form [[0, 2], [-2, 0]] has det 4: zero mod 2
        with pytest.raises(DegenerateFormError):
            karl(SeifertMatrix(Matrix([[1, 1], [-1, 1]]), q=1))


class TestLevineCongruence:
    def test_trefoil(self):
        s = SeifertMatrix(Matrix([[-1, 1], [0, -1]]), q=1)
        assert levine_congruence_check(s)

    def test_unknot(self):
        assert levine_congruence_check(SeifertMatrix(Matrix([], ncols=0), q=1))

    def test_a1(self):
        assert levine_congruence_check(SeifertMatrix(Matrix([[-1, 0], [1, -1]]), q=1))
