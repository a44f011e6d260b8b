import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotforms import exact
from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
from knotforms.exact import Matrix
from knotforms.laurent import (Laurent, NormalizationError,
                               conway_normalize, cyclotomic,
                               cyclotomic_indices_up_to_degree, det_pencil,
                               elementary_divisors, factor_int_poly,
                               is_product_of_cyclotomics, pencil, render_poly,
                               _find_factor, _int_divide_exact, _interpolate_int,
                               _poly_divmod, _poly_mul)
from knotforms.cobordism import fox_milnor

from oracles import (det_pencil_interpolation, elementary_divisors_fraction,
                     find_factor_exhaustive, int_divide_exact_over_q,
                     interpolate_lagrange, laurent_det_cofactor, poly_divmod_fraction)
from generators import (corpus_seifert_matrices, matrix_pairs, random_unimodular,
                        square_matrices)

# Sigma(6k-1,3,2,2,2), k = 1..4, and Sigma(d,2,2,2,2,2), odd d = 3..31
LADDER_GERMS = ([(6 * k - 1, 3, 2, 2, 2) for k in range(1, 5)]
                + [(d, 2, 2, 2, 2, 2) for d in range(3, 33, 2)])


GOLDEN = Path(__file__).parent / "golden"


def det_pencil_multimodular(a: Matrix, b: Matrix) -> Laurent:
    """det_pencil by the multi-modular kernel, which det_pencil runs only
    above rank 8."""
    return Laurent.from_coeff_list(exact._pencil_det_multimodular(a, b))


PENCIL_KERNELS = (det_pencil, det_pencil_multimodular)


def poly(d):
    return Laurent(d)


def int_polys(min_degree: int, max_degree: int, bound: int = 4):
    """Ascending integer coefficient lists with nonzero leading coefficient."""
    return st.integers(min_degree, max_degree).flatmap(lambda d: st.tuples(
        st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
        st.integers(-bound, bound).filter(bool)).map(lambda cl: cl[0] + [cl[1]]))


@st.composite
def interpolation_data(draw):
    """Distinct integer nodes with values that are either arbitrary or those
    of an integer polynomial of lower degree than the node count."""
    xs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=len(xs), max_size=len(xs)))
        ys = [sum(c * x ** k for k, c in enumerate(coeffs)) for x in xs]
    else:
        ys = draw(st.lists(st.integers(-60, 60), min_size=len(xs), max_size=len(xs)))
    return xs, ys


@st.composite
def knot_module_pencils(draw):
    """Pencils tA + eps A^T with A of rank <= 6 and entries in -3..3: drawn
    as is, with row and column j repeating row and column i (then the
    pencil kills e_i - e_j: a zero divisor), or as a block sum B + B (a
    non-cyclic module)."""
    kind = draw(st.sampled_from(["plain", "repeated row", "block sum"]))
    if kind == "block sum":
        n = draw(st.integers(1, 3))
        b = draw(square_matrices(n))
        a = Matrix([list(row) + [0] * n for row in b.rows]
                   + [[0] * n + list(row) for row in b.rows], ncols=2 * n)
    else:
        a = draw(square_matrices(draw(st.integers(1, 6))))
        if kind == "repeated row" and a.nrows > 1:
            i, j = draw(st.lists(st.integers(0, a.nrows - 1), min_size=2, max_size=2,
                                 unique=True))
            rows = [list(row) for row in a.rows]
            rows[j] = list(rows[i])
            for row in rows:
                row[j] = row[i]
            a = Matrix(rows, ncols=a.nrows)
    return pencil(a, a.transpose().scale(draw(st.sampled_from([1, -1]))))


def corpus_pencils(max_rank: int):
    """Unimodular pencils tA + eps A^T, A drawn like the matrix-files corpus."""
    return corpus_seifert_matrices(max_rank).map(
        lambda aq: pencil(aq[0], aq[0].transpose().scale(-1 if aq[1] % 2 else 1)))


# int, Fraction or bool coefficients; halves and thirds make sums and
# products that are integers again
EXACT_COEFFS = st.one_of(st.integers(-4, 4), st.booleans(),
                         st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])))


def exact_polys():
    return st.dictionaries(st.integers(-3, 3), EXACT_COEFFS, max_size=4).map(Laurent)


def int_laurents():
    return st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=4).map(Laurent)


def laurent_matrices(max_n: int):
    """Square Laurent matrices of size 1..max_n, exponents in -3..2."""
    entry = st.dictionaries(st.integers(-3, 2), st.integers(-2, 2), max_size=3).map(Laurent)
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def factor_products(draw):
    """Primitive integer polynomials of degree 2..8 with positive leading
    coefficient, as products of 1..3 random factors."""
    p = [1]
    for coeffs in draw(st.lists(int_polys(1, 4, bound=3), min_size=1, max_size=3)):
        if len(p) + len(coeffs) - 2 <= 8:
            p = _poly_mul(p, coeffs)
    content = Laurent.from_coeff_list(p).content()
    sign = 1 if p[-1] > 0 else -1
    return [c // (sign * content) for c in p]


class TestLaurentArithmetic:
    def test_zero_support(self):
        assert Laurent({0: 0, 3: 0}).is_zero

    def test_add_mul(self):
        p = poly({0: 1, 1: 1})
        q = poly({0: -1, 1: 1})
        assert p * q == poly({0: -1, 2: 1})
        assert p + q == poly({1: 2})

    def test_negative_exponents(self):
        p = poly({-1: 1, 0: -1, 1: 1})
        assert p.reciprocal() == p
        assert p(1) == 1
        assert p(-1) == -3

    def test_evaluate_fraction(self):
        p = poly({-2: 1})
        assert p(2) == Fraction(1, 4)
        assert poly({-1: Fraction(1, 2), 2: 3})(Fraction(-2, 3)) == Fraction(7, 12)

    def test_unit_normalize(self):
        p = poly({-3: -2, -1: 4})
        canon = p.unit_normalize()
        assert canon == poly({0: 2, 2: -4}).unit_normalize()
        assert canon.min_exponent == 0
        assert canon.leading_coefficient > 0

    def test_pow(self):
        p = poly({0: 1, 1: 1})
        assert p ** 3 == poly({0: 1, 1: 3, 2: 3, 3: 1})


def assert_normalized(p: Laurent):
    """p is what the checking constructor builds from its coefficients:
    equal, in the same (ascending) order, with the same types."""
    checked = Laurent(dict(p.coeffs))
    assert ([(e, c, type(c)) for e, c in p.coeffs.items()]
            == [(e, c, type(c)) for e, c in checked.coeffs.items()])


class TestUncheckedProducers:
    """Producers that skip the coefficient checks agree with the checking
    constructor, on int, Fraction and mixed polynomials."""

    @given(exact_polys(), st.integers(-4, 4))
    def test_shift_neg_reciprocal(self, p, k):
        assert_normalized(p.shift(k))
        assert_normalized(-p)
        assert_normalized(p.reciprocal())
        assert p.reciprocal().reciprocal() == p

    @given(exact_polys(), st.one_of(EXACT_COEFFS, st.builds(Fraction, st.integers(-3, 3))))
    def test_scale(self, p, c):
        assert_normalized(p.scale(c))

    @given(st.one_of(int_laurents(), exact_polys()), st.one_of(int_laurents(), exact_polys()))
    def test_mul(self, p, q):
        assert_normalized(p * q)
        assert_normalized(p ** 2)

    @given(st.lists(EXACT_COEFFS, max_size=5), st.integers(-3, 3))
    def test_from_coeff_list(self, coeffs, lo):
        p = Laurent.from_coeff_list(coeffs, lo)
        assert_normalized(p)
        assert p == Laurent({lo + i: c for i, c in enumerate(coeffs)})


class TestPolyDivmod:
    """Quotient coefficients are ints exactly where they are integral, and
    match the all-Fraction oracle value for value."""

    @given(st.lists(EXACT_COEFFS, max_size=6),
           st.lists(EXACT_COEFFS, min_size=1, max_size=4).filter(lambda d: d[-1] != 0))
    def test_matches_fraction_oracle(self, num, den):
        while num and num[-1] == 0:
            num.pop()
        q, r = _poly_divmod(num, den)
        oq, orem = poly_divmod_fraction(num, den)
        assert q == oq and r == orem
        assert all(isinstance(x, int) == (Fraction(x).denominator == 1) for x in q)

    @given(int_polys(0, 5), int_polys(0, 3))
    def test_integer_multiples_stay_int(self, q, den):
        num = _poly_mul(q, den)
        quotient, rem = _poly_divmod(num, den)
        assert quotient == q and rem == []
        assert all(type(x) is int for x in quotient)

    def test_integral_and_fractional_quotients(self):
        q, r = _poly_divmod([1, 2, 4], [1, 2])  # 4t^2 + 2t + 1 = (2t)(2t + 1) + 1
        assert q == [0, 2] and r == [1] and type(q[1]) is int
        q, _ = _poly_divmod([0, 3], [1, 2])
        assert q == [Fraction(3, 2)]


class TestRender:
    def test_ascending_with_negative_powers(self):
        p = poly({-1: 1, 0: -1, 1: 1})
        assert render_poly(p) == "t^-1 - 1 + t"

    def test_zero(self):
        assert render_poly(Laurent.zero()) == "0"

    def test_coefficients(self):
        assert render_poly(poly({0: -2, 2: 3})) == "-2 + 3t^2"


class TestConway:
    def test_trefoil(self):
        raw = poly({0: 1, 1: -1, 2: 1})
        assert conway_normalize(raw) == poly({-1: 1, 0: -1, 1: 1})

    def test_constant(self):
        assert conway_normalize(poly({0: -1})) == Laurent.one()
        assert conway_normalize(poly({5: 1})) == Laurent.one()

    def test_rejects_non_unit_value(self):
        with pytest.raises(NormalizationError):
            conway_normalize(poly({0: 1, 1: 1}))  # value 2 at t=1

    def test_rejects_odd_span(self):
        # value +-1 at t=1 but no symmetric representative
        with pytest.raises(NormalizationError):
            conway_normalize(poly({0: 2, 1: -1}))

    def test_rejects_asymmetric_even_span(self):
        with pytest.raises(NormalizationError):
            conway_normalize(poly({0: -1, 1: 1, 2: 1}))

    def test_symmetry_and_unit_value(self):
        rng = random.Random(1234)
        count = 0
        while count < 50:
            coeffs = {i: rng.randint(-3, 3) for i in range(rng.randint(1, 4))}
            p = poly(coeffs)
            if p.is_zero:
                continue
            sym = p * p.reciprocal()  # symmetric by construction
            if sym(1) not in (1, -1):
                continue
            count += 1
            c = conway_normalize(sym)
            assert c(1) == 1
            assert c.reciprocal() == c


class TestCyclotomic:
    def test_small(self):
        assert cyclotomic(1) == poly({0: -1, 1: 1})
        assert cyclotomic(2) == poly({0: 1, 1: 1})
        assert cyclotomic(6) == poly({0: 1, 1: -1, 2: 1})
        assert cyclotomic(12) == poly({0: 1, 2: -1, 4: 1})

    def test_product_over_divisors(self):
        for n in (6, 8, 12, 30):
            product = Laurent.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * cyclotomic(d)
            assert product == poly({0: -1, n: 1})

    def test_index_bound(self):
        indices = cyclotomic_indices_up_to_degree(4)
        assert set(indices) == {n for n in range(1, 33)
                                if cyclotomic(n).max_exponent <= 4}

    def test_is_product_of_cyclotomics(self):
        assert is_product_of_cyclotomics(cyclotomic(6) * cyclotomic(1) ** 2)
        assert is_product_of_cyclotomics(poly({0: -1}))
        assert not is_product_of_cyclotomics(poly({0: -1, 1: 1, 2: 1}))
        assert not is_product_of_cyclotomics(poly({1: 1}))  # root 0
        assert not is_product_of_cyclotomics(poly({0: 2, 1: 1}))


class TestFactorization:
    def test_difference_of_squares(self):
        f = factor_int_poly(poly({0: -1, 2: 1}))
        assert sorted(render_poly(p) for p, _ in f.factors) == ["-1 + t", "1 + t"]
        assert all(m == 1 for _, m in f.factors)

    def test_irreducible_quadratic(self):
        f = factor_int_poly(poly({0: 1, 1: -1, 2: 1}))
        assert len(f.factors) == 1
        assert f.factors[0] == (poly({0: 1, 1: -1, 2: 1}), 1)

    def test_product_of_quadratics(self):
        f = factor_int_poly(poly({0: 1, 2: 1, 4: 1}))
        assert sorted(render_poly(p) for p, _ in f.factors) == \
            ["1 + t + t^2", "1 - t + t^2"]

    def test_unit_and_content(self):
        p = poly({-2: -6, -1: 6})  # -6 t^-2 (1 - t)
        f = factor_int_poly(p)
        assert f.content == 6
        assert f.unit_exponent == -2
        assert f.product() == p

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_int_poly(Laurent.zero())

    def test_reconstruction_random(self):
        rng = random.Random(777)
        for _ in range(60):
            factors = []
            p = Laurent.constant(rng.choice([1, -1]) * rng.randint(1, 3))
            for _ in range(rng.randint(1, 3)):
                degree = rng.randint(1, 3)
                coeffs = {i: rng.randint(-3, 3) for i in range(degree)}
                coeffs[degree] = rng.choice([1, -1, 2])
                q = poly(coeffs)
                if q.is_zero:
                    continue
                p = p * q
            if p.is_zero:
                continue
            f = factor_int_poly(p)
            assert f.product() == p

    def test_multiplicity(self):
        p = poly({0: -1, 1: 1}) ** 3 * poly({0: 1, 1: 1})
        f = factor_int_poly(p)
        assert dict((render_poly(g), m) for g, m in f.factors) == \
            {"-1 + t": 3, "1 + t": 1}

    def test_matches_golden(self):
        # captured before factoring became integer-only: cobordance
        # difference polynomials plus hand-made cases (non-monic linear
        # factors, cyclotomics, repeated factors, content, sign, t^k)
        golden = (GOLDEN / "factorizations.txt").read_text()
        lines = []
        for line in golden.splitlines():
            if not line.startswith("#"):
                lo, coeffs = line.split("; ")[:2]
                p = Laurent.from_coeff_list([int(c) for c in coeffs.split()], int(lo))
                line = f"{lo}; {coeffs}; {factor_int_poly(p)!r}; {fox_milnor(factor_int_poly(p))}"
            lines.append(line)
        assert "\n".join(lines) + "\n" == golden

    @given(st.lists(int_polys(1, 2, bound=3), min_size=1, max_size=3),
           st.sampled_from([1, -1, 2, -6]), st.integers(-3, 3))
    def test_product_round_trip(self, factors, unit, shift):
        p = Laurent.constant(unit).shift(shift)
        for coeffs in factors:
            p = p * Laurent.from_coeff_list(coeffs)
        assert factor_int_poly(p).product() == p

    @settings(max_examples=300)
    @given(interpolation_data())
    def test_interpolation_matches_lagrange(self, data):
        xs, ys = data
        assert _interpolate_int(xs, ys) == interpolate_lagrange(xs, ys)

    @settings(max_examples=300)
    @given(int_polys(0, 3), int_polys(0, 4), st.booleans())
    def test_exact_division_matches_rational(self, den, other, multiply):
        # num is den * other (always divisible) or other itself, which may
        # be shorter than den
        num = _poly_mul(den, other) if multiply else other
        assert _int_divide_exact(num, den) == int_divide_exact_over_q(num, den)
        if multiply:
            assert _int_divide_exact(num, den) == other

    @settings(max_examples=150)
    @given(factor_products())
    def test_factor_search_matches_exhaustive(self, coeffs):
        assert _find_factor(coeffs) == find_factor_exhaustive(coeffs)

    def test_higher_degree_irreducible_pair(self):
        # t^8 + t^6 + t^4 + t^2 + 1 factors into two quartics (and is also
        # the 20th cyclotomic times the 5th: checks peeling + search agree)
        p = poly({0: 1, 2: 1, 4: 1, 6: 1, 8: 1})
        f = factor_int_poly(p)
        assert f.product() == p
        assert sorted(g.max_exponent for g, m in f.factors for _ in range(m)) == [4, 4]


class TestPencilDet:
    @settings(max_examples=150)
    @given(matrix_pairs(5))
    def test_matches_cofactor_oracle(self, ab):
        a, b = ab
        assert det_pencil(a, b) == laurent_det_cofactor(pencil(a, b))

    @settings(max_examples=60)
    @given(matrix_pairs(12, -4, 4))
    def test_matches_interpolation_oracle(self, ab):
        a, b = ab
        assert det_pencil(a, b) == det_pencil_interpolation(a, b)

    @settings(max_examples=60)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        square_matrices(n), st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from([0, 1, 2, -1]))))
    def test_identity_and_near_identity(self, data):
        # a = I takes the characteristic-polynomial path; changing one
        # entry of I must take the general one
        b, i, j, x = data
        n = b.nrows
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = x
        for a in (Matrix.identity(n), Matrix(rows, ncols=n)):
            for kernel in PENCIL_KERNELS:
                assert kernel(a, b) == laurent_det_cofactor(pencil(a, b))

    def test_empty(self):
        assert det_pencil(Matrix([], ncols=0), Matrix([], ncols=0)) == Laurent.one()

    def test_rank_one(self):
        assert det_pencil(Matrix([[3]]), Matrix([[-5]])) == poly({0: -5, 1: 3})
        assert det_pencil(Matrix([[0]]), Matrix([[7]])) == poly({0: 7})
        assert det_pencil(Matrix([[0]]), Matrix([[0]])).is_zero

    def test_singular_a(self):
        # det [[t, 2t + 1], [2t + 1, 4t]] = 4t^2 - (2t + 1)^2
        a = Matrix([[1, 2], [2, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert det_pencil(a, b) == poly({0: -1, 1: -4})

    def test_singular_a_and_b_regular_pencil(self):
        # b and a + b are singular, 2a + b is not: det = t^2 - t, hidden by
        # changes of basis of determinant 1 on both sides
        rng = random.Random(31)
        a = Matrix.diagonal([1, 1, 0])
        b = Matrix.diagonal([0, -1, 1])
        for _ in range(10):
            p, q = random_unimodular(rng, 3), random_unimodular(rng, 3)
            for kernel in PENCIL_KERNELS:
                assert kernel(p @ a @ q, p @ b @ q) == poly({1: -1, 2: 1})

    def test_identically_zero(self):
        rng = random.Random(32)
        for n in range(1, 7):
            # the last column is the same combination of the others in a and b
            w = [rng.randint(-3, 3) for _ in range(n - 1)]
            a, b = ([[rng.randint(-9, 9) for _ in range(n - 1)] for _ in range(n)]
                    for _ in range(2))
            a = Matrix([row + [sum(map(int.__mul__, w, row))] for row in a], ncols=n)
            b = Matrix([row + [sum(map(int.__mul__, w, row))] for row in b], ncols=n)
            for kernel in PENCIL_KERNELS:
                assert kernel(a, b).is_zero

    def test_large_entries(self):
        # coefficients beyond 2^60 need at least three primes below 2^30,
        # and the symmetric lift must bring back the negative ones
        rng = random.Random(33)
        for n in (4, 6):
            a, b = ([[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            got = det_pencil(Matrix(a), Matrix(b))
            assert got == det_pencil_interpolation(Matrix(a), Matrix(b))
            assert got == det_pencil_multimodular(Matrix(a), Matrix(b))
            assert max(map(abs, got.coeffs.values())) > 2 ** 60
            assert min(got.coeffs.values()) < 0

    @pytest.mark.parametrize("exponents", LADDER_GERMS)
    def test_ladder_germs_match_interpolation(self, exponents):
        s = brieskorn_seifert(BrieskornGerm(exponents))
        a, b = s.matrix, s.matrix.transpose().scale(s.epsilon)
        assert det_pencil(a, b) == det_pencil_interpolation(a, b)


class TestElementaryDivisors:
    def test_trefoil_pencil(self):
        a = Matrix([[-1, 0], [1, -1]])
        rows = pencil(a, a.transpose().scale(-1))
        assert elementary_divisors(rows) == [poly({0: 1, 1: -1, 2: 1})]

    def test_identity(self):
        rows = [[Laurent.one(), Laurent.zero()], [Laurent.zero(), Laurent.one()]]
        assert elementary_divisors(rows) == []

    def test_already_diagonal(self):
        tm1 = poly({0: -1, 1: 1})
        rows = [[tm1, Laurent.zero()], [Laurent.zero(), tm1]]
        assert elementary_divisors(rows) == [tm1, tm1]

    def test_divisibility_chain_random(self):
        rng = random.Random(515)
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = [[poly({e: rng.randint(-2, 2) for e in range(2)})
                     for _ in range(n)] for _ in range(n)]
            divisors = [d for d in elementary_divisors(rows) if not d.is_zero]
            for p, q in zip(divisors, divisors[1:]):
                # p | q over Q[t]: verify by polynomial division
                _, rem = poly_divmod_fraction(q.coeff_list(), p.coeff_list())
                assert not rem

    @settings(max_examples=100)
    @given(matrix_pairs(5).flatmap(lambda ab: st.tuples(
        st.just(ab), st.integers(0, ab[0].nrows))))
    @example(((Matrix.identity(3), Matrix.diagonal([-1, -2, -1])), 0))
    @example(((Matrix.identity(3), Matrix.diagonal([-1, -2, -1])), 1))
    def test_chain_with_zero_divisors_last(self, data):
        # pencil tA + B whose last k rows repeat earlier rows (or vanish
        # when k = n), so its free rank over Q[t] is at least k
        (a, b), k = data
        n = a.nrows
        src = [i if i < n - k else i % (n - k) if k < n else None for i in range(n)]
        a, b = (Matrix([[0] * n if i is None else m.rows[i] for i in src], ncols=n)
                for m in (a, b))
        divisors = elementary_divisors(pencil(a, b))
        zeros = [d.is_zero for d in divisors]
        assert zeros == sorted(zeros)  # every zero divisor after every nonzero one
        assert sum(zeros) >= k
        assert any(zeros) == det_pencil(a, b).is_zero
        nonzero = [d for d in divisors if not d.is_zero]
        for p, q in zip(nonzero, nonzero[1:]):
            _, rem = poly_divmod_fraction(q.coeff_list(), p.coeff_list())
            assert not rem

    @settings(max_examples=200)
    @given(st.one_of(knot_module_pencils(), laurent_matrices(3), corpus_pencils(8)))
    def test_matches_fraction_oracle(self, rows):
        assert elementary_divisors(rows) == elementary_divisors_fraction(rows)

    def test_zero_divisor_for_singular(self):
        rows = [[Laurent.zero(), Laurent.zero()],
                [Laurent.zero(), poly({0: -1, 1: 1})]]
        divisors = elementary_divisors(rows)
        assert divisors == [poly({0: -1, 1: 1}), Laurent.zero()]

    def test_laurent_units_stripped(self):
        rows = [[poly({-3: 1, -2: -1})]]  # t^-3 (1 - t)
        assert elementary_divisors(rows) == [poly({0: -1, 1: 1})]
