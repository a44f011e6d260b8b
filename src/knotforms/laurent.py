"""Laurent polynomials in one variable with exact coefficients.

A Laurent polynomial is a finite map exponent -> coefficient (int or
Fraction); exponents may be negative.  "Up to unit" always means up to
a factor +-t^k; the canonical representative has minimal exponent 0,
nonzero constant term, and positive leading coefficient.

Also here: polynomial factorization over Z[t] by desk-scale exhaustive
search in integer arithmetic (cyclotomic peeling, then factor
interpolation for each degree from 1 to half the degree), cyclotomic
polynomials, determinants of integer pencils t*A + B by the multi-modular
Hessenberg kernel of `exact` (O(n^3) per prime, CRT under a proven
coefficient bound), and elementary divisors of square matrices over
Q[t, 1/t].
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from .exact import Matrix, ShapeError, _as_exact, pencil_det_coefficients


class NormalizationError(ValueError):
    """Requested normal form does not exist for the given polynomial."""


class Laurent:
    """Immutable Laurent polynomial; `coeffs` maps exponent to coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                c = _as_exact(c)
                if c != 0:
                    clean[int(e)] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Laurent is immutable")

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    @classmethod
    def t(cls, exponent: int = 1) -> "Laurent":
        return cls({exponent: 1})

    @classmethod
    def constant(cls, c) -> "Laurent":
        return cls({0: c})

    @classmethod
    def from_coeff_list(cls, coeffs, min_exponent: int = 0) -> "Laurent":
        """Build from ascending coefficients starting at `min_exponent`."""
        return cls({min_exponent + i: c for i, c in enumerate(coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return next(iter(self.coeffs))

    @property
    def max_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no support")
        return next(reversed(self.coeffs))

    @property
    def span(self) -> int:
        return self.max_exponent - self.min_exponent

    @property
    def leading_coefficient(self):
        return self.coeffs[self.max_exponent]

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

    def coefficient(self, e: int):
        return self.coeffs.get(e, 0)

    def coeff_list(self) -> list:
        """Ascending dense coefficients from min_exponent to max_exponent."""
        if self.is_zero:
            return []
        lo = self.min_exponent
        out = [0] * (self.span + 1)
        for e, c in self.coeffs.items():
            out[e - lo] = c
        return out

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs.items()))

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, object] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("negative powers are not defined for general polynomials")
        result = Laurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "Laurent":
        return Laurent({e: c * x for e, x in self.coeffs.items()})

    def shift(self, k: int) -> "Laurent":
        """Multiply by t^k."""
        return Laurent({e + k: c for e, c in self.coeffs.items()})

    def reciprocal(self) -> "Laurent":
        """Substitute t -> 1/t."""
        return Laurent({-e: c for e, c in self.coeffs.items()})

    def __call__(self, x):
        """Exact evaluation; x must be nonzero if negative exponents occur."""
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += Fraction(c) * (Fraction(x) ** e)
        return int(total) if total.denominator == 1 else total

    def __repr__(self):
        return f"Laurent({render_poly(self)!r})"

    def unit_normalize(self) -> "Laurent":
        """Canonical representative of the class up to units +-t^k:
        minimal exponent 0, positive leading coefficient."""
        if self.is_zero:
            return self
        p = self.shift(-self.min_exponent)
        if p.leading_coefficient < 0:
            p = -p
        return p

    def content(self) -> int:
        """gcd of the (integer) coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs.values():
            if not isinstance(c, int):
                raise TypeError("content is defined for integer polynomials")
            g = gcd(g, c)
        return g


def render_poly(p: Laurent, var: str = "t") -> str:
    """Deterministic human rendering, ascending exponent order.

    Negative exponents use explicit carets ("t^-1 - 1 + t") so that
    symmetry under t <-> 1/t is visible in reports.
    """
    if p.is_zero:
        return "0"
    pieces = []
    for e, c in p.coeffs.items():
        if e == 0:
            term = str(abs(c))
        else:
            power = var if e == 1 else f"{var}^{e}"
            term = power if abs(c) == 1 else f"{abs(c)}{power}"
        if not pieces:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(pieces)


def conway_normalize(p: Laurent) -> Laurent:
    """Representative +-t^k * p that is symmetric under t <-> 1/t and
    evaluates to +1 at t = 1.

    Exists only when p(1) = +-1 and the degree span is even (a half-integer
    shift would otherwise be needed); anything else raises
    NormalizationError.  With this normalization, classical congruences
    such as value-at(-1) = 1 + 4*Arf (mod 8) hold on the nose.
    """
    if p.is_zero:
        raise NormalizationError("zero polynomial cannot be normalized")
    at_one = p(1)
    if at_one not in (1, -1):
        raise NormalizationError(
            f"value at t=1 is {at_one}, not +-1; boundary is not a homotopy sphere")
    base = p.shift(-p.min_exponent)
    d = base.max_exponent if not base.is_zero else 0
    if d % 2 != 0:
        raise NormalizationError(
            "odd degree span: symmetric representative needs a half-integer shift")
    sym = base.shift(-d // 2)
    if sym(1) == -1:
        sym = -sym
    if sym.reciprocal() != sym:
        raise NormalizationError("no representative is symmetric under t <-> 1/t")
    return sym


# ---------------------------------------------------------------------------
# dense Q[t] helpers (ascending coefficient lists, no trailing zeros)

def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    # Exact division over Q; coefficients become Fractions.
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in den]
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    r = num
    dlead = den[-1]
    while len(r) >= len(den) and _trim(r):
        shift = len(r) - len(den)
        factor = r[-1] / dlead
        q[shift] = factor
        for i, dc in enumerate(den):
            r[shift + i] -= factor * dc
        _trim(r)
    return _trim(q), r


def _int_divide_exact(num: list[int], den: list[int]) -> list[int] | None:
    """Quotient of integer polynomials if den divides num in Z[t], else None.

    Long division in integers only, for any nonzero leading coefficient of
    den; gives up at the first quotient coefficient that is not an integer.
    """
    r = list(num)
    dn = len(den) - 1
    q = [0] * max(0, len(num) - dn)
    for shift in range(len(q) - 1, -1, -1):
        factor, rem = divmod(r[shift + dn], den[-1])
        if rem:
            return None
        if factor:
            q[shift] = factor
            for i in range(dn + 1):
                r[shift + i] -= factor * den[i]
    if any(r):
        return None
    return q


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Laurent:
    """n-th cyclotomic polynomial, computed by exact division of t^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    num = [0] * n + [1]
    num[0] = -1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul_int(den, cyclotomic(d).coeff_list())
    quotient = _int_divide_exact(num, den)
    assert quotient is not None
    return Laurent.from_coeff_list(quotient)


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_indices_up_to_degree(max_degree: int) -> tuple[int, ...]:
    """All n with deg(cyclotomic(n)) = phi(n) <= max_degree.

    phi(n) >= sqrt(n/2) for every n >= 1, so n <= 2*max_degree^2 suffices.
    """
    if max_degree < 1:
        return ()
    bound = 2 * max_degree * max_degree + 1
    return tuple(n for n in range(1, bound + 1) if _euler_phi(n) <= max_degree)


def is_product_of_cyclotomics(p: Laurent) -> bool:
    """True iff p is +-1 times a product of cyclotomic polynomials.

    Degree-bounded matching: peel every cyclotomic of degree <= deg(p) by
    exact division; the answer is yes iff the residual is a constant +-1.
    A factor of t (root 0) is not cyclotomic and fails.
    """
    if p.is_zero:
        return False
    if p.min_exponent < 0:
        raise ValueError("expected an ordinary polynomial, not a Laurent unit class")
    if p.min_exponent > 0:
        return False
    rest, _ = _peel_cyclotomics(p.coeff_list())
    return rest in ([1], [-1])


def _peel_cyclotomics(coeffs: list[int]) -> tuple[list[int], list[list[int]]]:
    """The cofactor of a nonzero integer polynomial after dividing out every
    cyclotomic factor, and those factors, one entry per multiplicity."""
    peeled = []
    for n in cyclotomic_indices_up_to_degree(len(coeffs) - 1):
        phi = cyclotomic(n).coeff_list()
        while len(coeffs) >= len(phi):
            q = _int_divide_exact(coeffs, phi)
            if q is None:
                break
            peeled.append(phi)
            coeffs = q
    return coeffs, peeled


# ---------------------------------------------------------------------------
# factorization over Z[t]

class Factorization:
    """p = sign * t^unit_exponent * content * prod factor^multiplicity.

    Factors are primitive irreducible integer polynomials with positive
    leading coefficient and nonzero constant term, sorted for determinism.
    """

    __slots__ = ("sign", "unit_exponent", "content", "factors")

    def __init__(self, sign: int, unit_exponent: int, content: int,
                 factors: list[tuple[Laurent, int]]):
        self.sign = sign
        self.unit_exponent = unit_exponent
        self.content = content
        self.factors = sorted(
            factors, key=lambda fm: (fm[0].max_exponent, fm[0].coeff_list()))

    def product(self) -> Laurent:
        p = Laurent.constant(self.sign * self.content).shift(self.unit_exponent)
        for f, m in self.factors:
            p = p * f ** m
        return p

    def __repr__(self):
        parts = [f"{self.sign * self.content}", f"t^{self.unit_exponent}"]
        parts += [f"({render_poly(f)})^{m}" for f, m in self.factors]
        return "Factorization(" + " * ".join(parts) + ")"


def factor_int_poly(p: Laurent) -> Factorization:
    """Factor a nonzero integer Laurent polynomial into irreducibles over Z[t].

    Strategy (correctness over speed, inputs of desk scale): strip the unit
    +-t^k and the content, peel cyclotomic factors, then search the
    remaining part for factors of each degree 1 <= m <= deg/2 by evaluation
    at m+1 points and divisor interpolation, all in integer arithmetic.
    The product of the returned data reconstructs the input exactly, which
    callers may verify with Factorization.product().
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not p.is_integral:
        raise TypeError("factorization is over Z[t]; entries must be integers")
    unit_exponent = p.min_exponent
    base = p.shift(-unit_exponent)
    cont = base.content()
    sign = 1 if base.leading_coefficient > 0 else -1
    prim = [x // (sign * cont) for x in base.coeff_list()]
    factors: dict[Laurent, int] = {}

    def record(coeffs: list[int]):
        f = Laurent.from_coeff_list(coeffs)
        factors[f] = factors.get(f, 0) + 1

    # cyclotomic peeling keeps the exhaustive search small
    work, peeled = _peel_cyclotomics(prim)
    for phi in peeled:
        record(phi)
    stack = [work] if len(work) > 1 else []
    while stack:
        current = stack.pop()
        split = _find_factor(current)
        if split is None:
            record(current)
        else:
            stack.extend(split)
    result = Factorization(sign, unit_exponent, cont, list(factors.items()))
    assert result.product() == p, "factorization self-check failed"
    return result


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def _eval_int(coeffs: list[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _find_factor(coeffs: list[int]) -> tuple[list[int], list[int]] | None:
    """A nontrivial factor (factor, quotient) of a primitive integer
    polynomial with positive leading coefficient, or None if irreducible.

    Bounded-degree search over m = 1 .. deg/2: a degree-m factor is
    determined by its values at m+1 points, each of which must divide the
    value of the polynomial there.
    """
    d = len(coeffs) - 1
    points: list[int] = []
    values: list[int] = []
    x = 0
    while len(points) < d:
        for cand in (x, -x) if x else (0,):
            v = _eval_int(coeffs, cand)
            if v != 0 and cand not in points:
                points.append(cand)
                values.append(v)
        x += 1
    for m in range(1, d // 2 + 1):
        # fixing the first value positive halves the search; a factor or
        # its negation divides, and we normalize afterwards
        divisor_lists = [_divisors(values[0])] + [
            [s * d0 for d0 in _divisors(v) for s in (1, -1)] for v in values[1:m + 1]]
        for combo in product(*divisor_lists):
            cand = _interpolate_int(points[:m + 1], combo)
            if cand is None or len(cand) != m + 1:
                continue
            q = _int_divide_exact(coeffs, cand)
            if q is not None:
                if cand[-1] < 0:
                    cand, q = [-c for c in cand], [-c for c in q]
                return cand, q
    return None


def _interpolate_int(xs: list[int], ys) -> list[int] | None:
    """Coefficients of the polynomial of degree < len(xs) through the points
    (xs[i], ys[i]) at distinct integer nodes, or None unless all of them
    are integers.

    Newton divided differences: those of an integer polynomial at integer
    nodes are integers, and integer divided differences give an integer
    polynomial, so the first inexact division rejects the candidate.
    """
    n = len(xs)
    diffs = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - k])
            if rem:
                return None
    # Horner on the Newton form: p = diffs[0] + (t - xs[0]) (diffs[1] + ...)
    coeffs: list[int] = []
    for k in range(n - 1, -1, -1):
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= xs[k] * coeffs[j + 1]
        coeffs[0] += diffs[k]
    return _trim(coeffs)


# ---------------------------------------------------------------------------
# matrices of Laurent polynomials

def laurent_matrix(rows) -> list[list[Laurent]]:
    return [[entry if isinstance(entry, Laurent) else Laurent.constant(entry)
             for entry in row] for row in rows]


def pencil(a: Matrix, b: Matrix) -> list[list[Laurent]]:
    """The matrix t*a + b as a Laurent matrix."""
    if a.shape != b.shape:
        raise ShapeError("pencil factors must have equal shape")
    return [[Laurent({1: a.rows[i][j], 0: b.rows[i][j]})
             for j in range(a.ncols)] for i in range(a.nrows)]


def det_pencil(a: Matrix, b: Matrix) -> Laurent:
    """det(t*a + b) for integer matrices, in O(n^3) word operations per prime.

    For each prime p < 2^30, with the smallest c in 0..n making c*a + b
    invertible mod p, the result is det(c*a + b) times the reversed
    Hessenberg characteristic polynomial of (c*a + b)^-1 a, Taylor-shifted
    to t = s + c; if no such c exists the pencil vanishes mod p (p > n).
    The residues are combined by CRT under a Hadamard bound on the
    coefficients and re-checked at one extra prime (see
    exact.pencil_det_coefficients).
    """
    return Laurent.from_coeff_list(pencil_det_coefficients(a, b))


def elementary_divisors(rows) -> list[Laurent]:
    """Elementary divisors over Q[t, 1/t] of a square Laurent matrix.

    Returns the nontrivial members of the divisibility chain e_1 | e_2 | ...,
    each monic with nonzero constant term (Laurent units t^k stripped);
    unit divisors are omitted, zero divisors (free rank) are kept.
    """
    m = laurent_matrix(rows)
    size = len(m)
    if any(len(row) != size for row in m):
        raise ShapeError("elementary divisors need a square matrix")
    # clearing negative exponents entry-wise is illegal; shift whole rows
    # instead (row times t^k is an elementary move over Q[t,1/t])
    work: list[list[list[Fraction]]] = []
    for row in m:
        shift = min((p.min_exponent for p in row if not p.is_zero), default=0)
        dense_row = []
        for p in row:
            p = p.shift(-shift)
            if p.is_zero:
                dense_row.append([])
            else:
                dense_row.append([Fraction(p.coefficient(e))
                                  for e in range(p.max_exponent + 1)])
        work.append(dense_row)
    divisors = _poly_snf(work)
    out = []
    for dpoly in divisors:
        if not dpoly:
            out.append(Laurent.zero())
            continue
        lp = Laurent.from_coeff_list(dpoly)
        lp = lp.shift(-lp.min_exponent)
        lp = lp.scale(Fraction(1) / Fraction(lp.leading_coefficient))
        if lp != Laurent.one():
            out.append(lp)
    return out


def _poly_deg(p: list) -> int:
    return len(p) - 1


def _poly_snf(a: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    """Smith normal form over the Euclidean domain Q[t]; diagonal returned."""
    n = len(a)
    diag = []
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] and (best is None or
                                    _poly_deg(a[i][j]) < _poly_deg(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            done = True
            for i in range(t + 1, n):
                if a[i][t]:
                    q, r = _poly_divmod(a[i][t], a[t][t])
                    if _trim([Fraction(x) for x in q]):
                        for j in range(t, n):
                            sub = _poly_mul_frac(q, a[t][j])
                            a[i][j] = _poly_sub(a[i][j], sub)
                    if a[i][t]:
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q, r = _poly_divmod(a[t][j], a[t][t])
                    if _trim([Fraction(x) for x in q]):
                        for i in range(t, n):
                            sub = _poly_mul_frac(q, a[i][t])
                            a[i][j] = _poly_sub(a[i][j], sub)
                    if a[t][j]:
                        done = False
            if done:
                offender = None
                for i in range(t + 1, n):
                    for j in range(t + 1, n):
                        _, r = _poly_divmod(a[i][j], a[t][t])
                        if r:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                for j in range(t, n):
                    a[t][j] = _poly_add(a[t][j], a[offender][j])
        diag.append(a[t][t] if a[t][t] else [])
    return diag


def _poly_mul_frac(a: list, b: list) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += Fraction(x) * Fraction(y)
    return _trim(out)


def _poly_add(a: list, b: list) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += Fraction(x)
    for i, x in enumerate(b):
        out[i] += Fraction(x)
    return _trim(out)


def _poly_sub(a: list, b: list) -> list[Fraction]:
    return _poly_add(a, [-Fraction(x) for x in b])
