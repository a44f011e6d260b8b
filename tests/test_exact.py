import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotforms import exact
from knotforms.cobordism import _direct_sum
from knotforms.exact import (Matrix, ShapeError, SingularMatrixError, adjugate_product,
                             bernoulli, det, inverse, kronecker, pencil_det_coefficients,
                             smith_normal_form, word_prime)
from knotforms.laurent import Laurent, pencil

from generators import random_unimodular, square_matrices
from oracles import (bernoulli_akiyama_tanigawa, det_cofactor, det_pencil_interpolation,
                     inverse_gauss_jordan, is_prime_miller_rabin, laurent_det_cofactor,
                     smith_normal_form_with_transforms, snf_via_minor_gcds,
                     von_staudt_denominator)


def random_matrix(rng, n, m=None, lo=-5, hi=5):
    m = n if m is None else m
    return Matrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)], ncols=m)


class TestBernoulli:
    def test_first_values_match_recurrence_oracle(self):
        for k, expected in [(1, Fraction(1, 6)), (2, Fraction(1, 30)), (3, Fraction(1, 42))]:
            assert bernoulli(k) == expected
            assert bernoulli(k) == abs(bernoulli_akiyama_tanigawa(2 * k))

    def test_oracle_agreement_range(self):
        for k in range(1, 61):
            assert bernoulli(k) == abs(bernoulli_akiyama_tanigawa(2 * k))

    def test_all_positive(self):
        assert all(bernoulli(k) > 0 for k in range(1, 20))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(0)

    def test_von_staudt_clausen(self):
        # denominator of the standard signed B_2k = product of primes p
        # with (p-1) | 2k
        for k in range(1, 301):
            assert bernoulli(k).denominator == von_staudt_denominator(k)


class TestDet:
    def test_triangular(self):
        assert det(Matrix([[1, 0], [-1, 1]])) == 1

    def test_empty(self):
        assert det(Matrix([], ncols=0)) == 1

    def test_symplectic_block(self):
        assert det(Matrix([[0, 1], [-1, 0]])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            det(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_matches_cofactor_oracle(self):
        rng = random.Random(20240811)
        for _ in range(200):
            n = rng.randint(0, 5)
            m = random_matrix(rng, n)
            assert det(m) == det_cofactor(m)

    def test_rational_entries(self):
        m = Matrix([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
        assert det(m) == Fraction(1, 3)

    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_rational_matches_cofactor_oracle(self, rows):
        m = Matrix(rows, ncols=len(rows))
        assert det(m) == det_cofactor(m)


class TestInverse:
    def test_identity(self):
        assert inverse(Matrix.identity(3)) == Matrix.identity(3)

    def test_unipotent(self):
        m = Matrix([[-1, 1], [0, -1]])
        assert inverse(m) == Matrix([[-1, -1], [0, -1]])
        assert m @ inverse(m) == Matrix.identity(2)

    def test_scalar(self):
        assert inverse(Matrix([[2]])) == Matrix([[Fraction(1, 2)]])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inverse(Matrix([[1, 2], [2, 4]]))

    def test_det_of_inverse(self):
        rng = random.Random(7)
        found = 0
        while found < 50:
            m = random_matrix(rng, rng.randint(1, 4))
            d = det(m)
            if d == 0:
                continue
            found += 1
            assert d * det(inverse(m)) == 1
            assert m @ inverse(m) == Matrix.identity(m.nrows)

    @settings(max_examples=150)
    @given(st.integers(0, 6).flatmap(lambda n: square_matrices(n, -9, 9)))
    def test_matches_gauss_jordan_oracle(self, m):
        if det(m) == 0:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            return
        assert inverse(m) == inverse_gauss_jordan(m)

    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                 min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_rational_matches_gauss_jordan_oracle(self, rows):
        m = Matrix(rows, ncols=len(rows))
        if det(m) == 0:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            return
        assert inverse(m) == inverse_gauss_jordan(m)


class TestMultiModular:
    def test_word_primes(self):
        # every prime the kernel has used so far in this process, and more:
        # the consecutive primes below 2^30, each proven prime
        count = len(exact._word_primes) + 30
        primes = [word_prime(k) for k in range(count)]
        assert primes[0] < 2 ** 30 < primes[0] + 40
        for hi, lo in zip([2 ** 30] + primes, primes):
            assert is_prime_miller_rabin(lo)
            assert not any(is_prime_miller_rabin(c) for c in range(lo + 1, hi))

    @settings(max_examples=100)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.tuples(square_matrices(n, -9, 9), st.integers(0, 3).flatmap(
            lambda k: st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                               min_size=n, max_size=n).map(
                lambda rows: Matrix(rows, ncols=k))))))
    def test_adjugate_product(self, mr):
        m, r = mr
        d = det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                adjugate_product(m, r)
            return
        got_d, y = adjugate_product(m, r)
        assert got_d == d
        assert y.is_integral and y.shape == r.shape
        assert m @ y == r.scale(d)
        assert adjugate_product(m, r, d) == (d, y)  # a right det is accepted

    def test_adjugate_product_skips_primes_dividing_det(self):
        # det = p0 * p1 would make a multi-modular kernel drop both primes;
        # the fraction-free kernel takes it like any other det
        p0, p1 = word_prime(0), word_prime(1)
        m = Matrix([[p0 * p1, 1], [0, 1]])
        r = Matrix([[1, 2], [3, 4]])
        for known in (None, p0 * p1):
            d, y = adjugate_product(m, r, known)
            assert d == p0 * p1
            assert m @ y == r.scale(d)


def dependent_last_column(m: Matrix, w: list[int]) -> Matrix:
    """m with its last column replaced by the combination w of the others."""
    return Matrix([row[:-1] + (sum(map(mul, w, row)),) for row in m.rows], ncols=m.ncols)


@st.composite
def kernel_pencils(draw, max_n: int):
    """(a, b) of size 0..max_n with entries up to 3 or up to 10^6 in size: at
    random, with a singular a, an identically zero pencil (the last column
    of a and b the same combination of the others), or a = I."""
    n = draw(st.integers(0, max_n))
    bound = draw(st.sampled_from([3, 10 ** 6]))
    a, b = draw(square_matrices(n, -bound, bound)), draw(square_matrices(n, -bound, bound))
    kind = draw(st.sampled_from(["random", "singular", "zero", "identity"]))
    if kind == "identity":
        a = Matrix.identity(n)
    elif kind != "random" and n:
        w = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        a = dependent_last_column(a, w)
        if kind == "zero":
            b = dependent_last_column(b, w)
    return a, b


@st.composite
def kernel_adjugates(draw, max_n: int):
    """(m, r), m of size 0..max_n (singular about a quarter of the time), r
    with 0..3 columns.  Half of the m of size 2 or more are block sums
    x (+) y, like the cobordance differences f (+) -g, with x[0][0] a unit
    or not: the rows of y then reach the elimination step for a zero
    entry with a pivot equal to the previous one and with another."""
    n = draw(st.integers(0, max_n))
    bound = draw(st.sampled_from([3, 10 ** 6]))
    if n >= 2 and draw(st.booleans()):
        n1 = draw(st.integers(1, n - 1))
        x = draw(square_matrices(n1, -bound, bound))
        first = draw(st.sampled_from([1, -1, 2, -bound]))
        x = Matrix([(first, *x.rows[0][1:]), *x.rows[1:]], ncols=n1)
        m = _direct_sum(x, draw(square_matrices(n - n1, -bound, bound)))
    else:
        m = draw(square_matrices(n, -bound, bound))
    if n and draw(st.integers(0, 3)) == 0:
        m = dependent_last_column(m, draw(st.lists(st.integers(-3, 3), min_size=n - 1,
                                                   max_size=n - 1)))
    k = draw(st.integers(0, 3))
    r = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
                      min_size=n, max_size=n))
    return m, Matrix(r, ncols=k)


class TestKernelsByRank:
    """Pencil determinants run fraction-free elimination up to rank 8 and the
    multi-modular kernel above it, each kernel the other's oracle at every
    rank; adjugate products run fraction-free elimination at every rank."""

    @settings(max_examples=150)
    @given(kernel_pencils(10))
    @example((Matrix([], ncols=0), Matrix([], ncols=0)))
    @example((Matrix([[0]]), Matrix([[0]])))
    @example((Matrix([[3]]), Matrix([[-5]])))
    def test_pencil_kernels_agree(self, ab):
        a, b = ab
        small = exact._pencil_det_fraction_free(a, b)
        assert len(small) == a.nrows + 1
        assert small == exact._pencil_det_multimodular(a, b)
        assert pencil_det_coefficients(a, b) == small
        if a.nrows <= 5:
            assert Laurent.from_coeff_list(small) == laurent_det_cofactor(pencil(a, b))

    def test_pencil_coefficients_beyond_two_words(self):
        # the symmetric lift must bring back the negative coefficients, and
        # the interpolation their size
        rng = random.Random(34)
        for n in (4, 8, 9, 10):
            a, b = (random_matrix(rng, n, lo=-10 ** 6, hi=10 ** 6) for _ in range(2))
            small = exact._pencil_det_fraction_free(a, b)
            assert small == exact._pencil_det_multimodular(a, b)
            assert max(map(abs, small)) > 2 ** 60 and min(small) < 0

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_identity_pencils_past_fraction_free_rank(self, n):
        # det(tI + b) on the multi-modular kernel: for strictly upper
        # triangular and zero b, c = 0 is singular and c = 1 is taken
        rng = random.Random(36 + n)
        upper = Matrix([[rng.randint(-5, 5) if j > i else 0 for j in range(n)]
                        for i in range(n)], ncols=n)
        identity = Matrix.identity(n)
        for b in (upper, Matrix.zero(n, n), random_matrix(rng, n)):
            assert (Laurent.from_coeff_list(pencil_det_coefficients(identity, b))
                    == det_pencil_interpolation(identity, b))

    @settings(max_examples=150)
    @given(kernel_adjugates(16))
    @example((Matrix([], ncols=0), Matrix.zero(0, 2)))
    @example((Matrix([[0]]), Matrix([[1]])))
    def test_adjugate_kernels_agree(self, mr):
        m, r = mr
        d = det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                adjugate_product(m, r)
            return
        got = adjugate_product(m, r)
        assert got[0] == d and got[1].shape == r.shape
        assert m @ got[1] == r.scale(d)
        if m.nrows <= 6:
            assert got[1] == (inverse_gauss_jordan(m) @ r).scale(d)
        assert adjugate_product(m, r, d) == got
        with pytest.raises(AssertionError):
            adjugate_product(m, r, 2 * d)  # a wrong determinant is caught

    def test_rank_selects_the_kernel(self, monkeypatch):
        rng = random.Random(35)
        cases = [(random_unimodular(rng, n), random_matrix(rng, n)) for n in range(17)]
        expected = [exact._pencil_det_multimodular(m, r) for m, r in cases[:10]]

        def refuse(*args, **kwargs):
            raise RuntimeError("crt_lift reached")

        monkeypatch.setattr(exact, "crt_lift", refuse)
        for (m, r), coeffs in zip(cases[:9], expected):
            assert pencil_det_coefficients(m, r) == coeffs
        m, r = cases[9]
        with pytest.raises(RuntimeError, match="crt_lift reached"):
            pencil_det_coefficients(m, r)
        for m, r in cases:  # the adjugate has one kernel at every rank
            d, y = adjugate_product(m, r)
            assert d == 1 and m @ y == r


class TestKronecker:
    def test_scalars(self):
        assert kronecker(Matrix([[1]]), Matrix([[1]])) == Matrix([[1]])

    def test_identity_factor(self):
        a = Matrix([[1, 0], [-1, 1]])
        assert kronecker(a, Matrix([[1]])) == a

    def test_signed_tensor_with_scalar(self):
        a = Matrix([[1, 0], [-1, 1]])
        assert kronecker(Matrix([[1]]), a).scale(-1) == Matrix([[-1, 0], [1, -1]])

    def test_dimensions_multiply(self):
        rng = random.Random(99)
        for _ in range(20):
            a = random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
            b = random_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
            k = kronecker(a, b)
            assert k.shape == (a.nrows * b.nrows, a.ncols * b.ncols)

    def test_associative(self):
        rng = random.Random(100)
        for _ in range(20):
            a = random_matrix(rng, 2)
            b = random_matrix(rng, rng.randint(1, 2))
            c = random_matrix(rng, rng.randint(1, 2))
            assert kronecker(kronecker(a, b), c) == kronecker(a, kronecker(b, c))


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(Matrix([[2, 0], [0, 3]])) == (1, 6)

    def test_identity(self):
        assert smith_normal_form(Matrix.identity(2)) == (1, 1)

    def test_zero(self):
        assert smith_normal_form(Matrix.zero(2, 2)) == (0, 0)

    def test_matches_minor_gcd_oracle(self):
        rng = random.Random(31337)
        for _ in range(150):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, rng.randint(1, 4))
            assert smith_normal_form(m) == snf_via_minor_gcds(m)

    def test_divisibility_chain(self):
        rng = random.Random(4242)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            factors = smith_normal_form(m)
            for a, b in zip(factors, factors[1:]):
                assert a >= 0 and b >= 0
                if b != 0:
                    assert a != 0 and b % a == 0

    def test_product_equals_abs_det(self):
        rng = random.Random(5150)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4))
            d = det(m)
            factors = smith_normal_form(m)
            if d != 0:
                product = 1
                for f in factors:
                    product *= f
                assert product == abs(d)
            else:
                assert 0 in factors

    def test_transforms(self):
        rng = random.Random(6021)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            factors, u, v = smith_normal_form_with_transforms(m)
            assert smith_normal_form(m) == factors
            assert det(u) in (1, -1) and det(v) in (1, -1)
            product = u @ m @ v
            for i in range(product.nrows):
                for j in range(product.ncols):
                    expected = factors[i] if i == j and i < len(factors) else 0
                    assert product.rows[i][j] == expected


class TestMatrixBasics:
    def test_empty_shapes(self):
        m = Matrix([], ncols=3)
        assert m.shape == (0, 3)
        assert m.transpose().shape == (3, 0)

    def test_immutability(self):
        m = Matrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = ()

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            Matrix([[1, 2], [3]])


# int, bool or Fraction entries; halves make sums and products that are
# integers again
ENTRIES = st.one_of(st.integers(-4, 4), st.booleans(),
                    st.builds(Fraction, st.integers(-4, 4), st.just(2)))
HALVES = Matrix([[Fraction(1, 2), 1], [True, Fraction(-3, 2)]])


def exact_matrices(nrows, ncols, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: Matrix(rows, ncols=ncols))


def int_or_exact_of_shape(nrows, ncols):
    return st.one_of(exact_matrices(nrows, ncols, st.integers(-4, 4)),
                     exact_matrices(nrows, ncols))


def int_or_exact(max_n=3):
    """Integer or exact matrices of any shape up to max_n x max_n, empty
    ones included."""
    return st.tuples(st.integers(0, max_n), st.integers(0, max_n)).flatmap(
        lambda rc: int_or_exact_of_shape(*rc))


def square_int_or_exact(max_n=3):
    return st.integers(0, max_n).flatmap(lambda n: int_or_exact_of_shape(n, n))


def assert_validated(m: Matrix):
    """m is what Matrix() builds from its rows, entry types included, and
    its integrality flag is the per-entry scan."""
    checked = Matrix(m.rows, ncols=m.ncols)
    assert m == checked
    assert isinstance(m.rows, tuple) and all(isinstance(row, tuple) for row in m.rows)
    assert ([type(x) for row in m.rows for x in row]
            == [type(x) for row in checked.rows for x in row])
    assert m.is_integral == all(isinstance(x, int) for row in m.rows for x in row)
    assert m.is_integral == checked.is_integral


class TestUncheckedProducers:
    """Every matrix the library builds without entry checks agrees with the
    checked constructor, on int, Fraction, bool and mixed input."""

    @given(int_or_exact())
    @example(HALVES)
    def test_transpose_neg(self, m):
        assert_validated(m.transpose())
        assert m.transpose().shape == (m.ncols, m.nrows)
        assert_validated(-m)

    @given(int_or_exact(), st.data())
    def test_submatrix(self, m, data):
        ri = data.draw(st.lists(st.integers(0, m.nrows - 1), max_size=3)) if m.nrows else []
        ci = data.draw(st.lists(st.integers(0, m.ncols - 1), max_size=3)) if m.ncols else []
        sub = m.submatrix(ri, ci)
        assert_validated(sub)
        assert sub.shape == (len(ri), len(ci))

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda rc: st.tuples(int_or_exact_of_shape(*rc), int_or_exact_of_shape(*rc))))
    @example((HALVES, HALVES))
    def test_add_sub(self, ab):
        a, b = ab
        assert_validated(a + b)
        assert_validated(a - b)
        assert_validated(a - a)

    @given(int_or_exact(), st.one_of(ENTRIES, st.builds(Fraction, st.integers(-4, 4))))
    @example(HALVES, 2)
    def test_scale(self, m, c):
        assert_validated(m.scale(c))

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda s: st.tuples(int_or_exact_of_shape(s[0], s[1]),
                            int_or_exact_of_shape(s[1], s[2]))))
    @example((HALVES, HALVES))
    def test_matmul(self, ab):
        a, b = ab
        assert_validated(a @ b)

    @given(int_or_exact(2), int_or_exact(2))
    @example(HALVES, HALVES)
    def test_kronecker(self, a, b):
        assert_validated(kronecker(a, b))

    @given(int_or_exact(), st.integers(1, 5))
    @example(HALVES, 2)
    def test_entries_mod(self, m, n):
        assert_validated(m.entries_mod(n))

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_identity_zero(self, r, c):
        assert_validated(Matrix.identity(r))
        assert_validated(Matrix.zero(r, c))

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        square_matrices(n), exact_matrices(n, 2, st.integers(-4, 4)))))
    def test_adjugate_product(self, mr):
        m, r = mr
        assume(det(m) != 0)
        _, y = adjugate_product(m, r)
        assert_validated(y)

    @given(square_int_or_exact(), square_int_or_exact())
    @example(HALVES, Matrix([[1]]))
    def test_direct_sum(self, a, b):
        assert_validated(_direct_sum(a, b))
