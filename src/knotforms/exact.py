"""Exact integer and rational linear algebra.

Everything in this module is exact: entries are Python ints or
``fractions.Fraction``, determinants of integer matrices are computed by
fraction-free (Bareiss) elimination, and no floating point is used anywhere.
Empty (0 x 0) matrices are legal and meaningful throughout; by the usual
empty-product convention their determinant is 1.

A value with denominator 1 is always an ``int``, never a ``Fraction``, and
only outside data is validated: ``Matrix(rows)`` checks and normalizes
every entry, while the matrices the library builds from integer entries
(transposes, sums, products, adjugate products, ...) come from the private
``Matrix._of_ints``, which checks nothing.  Each matrix records at
construction whether all its entries are ints, so ``is_integral`` costs
nothing.

The Smith form gives invariant factors only, with no unimodular
transforms; the lattices of the cobordism search (kernels, saturations,
purity) come from the Hermite normal form in ``cobordism``.

Pencil determinants det(t*A + B) (characteristic polynomials among them)
take one of two kernels, by rank alone.  Up to rank 8, Bareiss
determinants at n + 1 integer nodes with exact Newton interpolation.
Above it, the multi-modular kernel does the O(n^3) work: Gauss-Jordan
solve and Hessenberg reduction over F_p for primes p < 2^30, combined
by the Chinese remainder theorem under a proven (Hadamard-type)
coefficient bound and lifted to the symmetric range.  Adjugate products
adj(M) R (and with them inverses) come from Bareiss's fraction-free
Gauss-Jordan form of [M | R] at every rank.  All of it is exact and
deterministic; the primes are proven by trial division on first use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm, prod
from operator import mul


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class SingularMatrixError(ZeroDivisionError):
    """Inversion of a matrix with determinant zero."""


def _as_exact(x):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable dense matrix with int or Fraction entries.

    `rows` is stored as a tuple of row tuples.  The column count is kept
    explicitly so that r x 0 and 0 x c matrices round-trip correctly.
    `is_integral` is True when every entry is an int (bools included).
    """

    __slots__ = ("rows", "nrows", "ncols", "is_integral")

    def __init__(self, rows, ncols: int | None = None):
        rows = tuple(tuple(_as_exact(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != width:
                raise ShapeError(f"ncols={ncols} does not match row length {width}")
            ncols = width
        else:
            ncols = 0 if ncols is None else ncols
        self._set(rows, ncols, all(isinstance(x, int) for row in rows for x in row))

    def _set(self, rows: tuple, ncols: int, integral: bool):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "is_integral", integral)

    @classmethod
    def _of_ints(cls, rows, ncols: int) -> "Matrix":
        """The matrix of rows of ints that the library built itself, each of
        length ncols: no entry or shape is checked."""
        m = object.__new__(cls)
        m._set(tuple(map(tuple, rows)), ncols, True)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of_ints([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._of_ints([[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix(<empty {self.nrows}x{self.ncols}>)"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix([{body}])"

    @staticmethod
    def _build(rows, ncols: int, integral: bool) -> "Matrix":
        # rows computed from exact entries: unchecked when they are known
        # to be ints, normalized by Matrix() otherwise
        return Matrix._of_ints(rows, ncols) if integral else Matrix(rows, ncols=ncols)

    def transpose(self) -> "Matrix":
        cols = zip(*self.rows) if self.nrows else [()] * self.ncols
        return self._build(cols, self.nrows, self.is_integral)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return self._build([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)],
                           self.ncols, self.is_integral and other.is_integral)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        return self._build([[c * x for x in row] for row in self.rows], self.ncols,
                           self.is_integral and isinstance(c, int))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        bt = other.transpose().rows
        return self._build([[sum(map(mul, row, col)) for col in bt] for row in self.rows],
                           other.ncols, self.is_integral and other.is_integral)

    def submatrix(self, row_indices, col_indices) -> "Matrix":
        ri, ci = list(row_indices), list(col_indices)
        return self._build([[self.rows[i][j] for j in ci] for i in ri], len(ci),
                           self.is_integral)

    def is_symmetric(self) -> bool:
        return self.is_square and self == self.transpose()

    def entries_mod(self, n: int) -> "Matrix":
        return self._build([[x % n for x in row] for row in self.rows], self.ncols,
                           self.is_integral and isinstance(n, int))


def det(m: Matrix):
    """Exact determinant; int for integral input, Fraction otherwise.

    The 0 x 0 determinant is 1 (empty product).  A rational m is scaled by
    the common denominator D of its entries: det(m) = det(D m) / D^n.
    """
    if not m.is_square:
        raise ShapeError(f"determinant of non-square {m.shape} matrix")
    n = m.nrows
    if m.is_integral:
        return _det_bareiss([list(row) for row in m.rows])
    denom = lcm(*(x.denominator for row in m.rows for x in row))
    detval = Fraction(_det_bareiss([[int(x * denom) for x in row] for row in m.rows]),
                      denom ** n)
    return int(detval) if detval.denominator == 1 else detval


def _det_bareiss(a: list[list[int]]) -> int:
    # Fraction-free Gaussian elimination; all divisions are exact.
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            aik = row_i[k]
            akk = a[k][k]
            for j in range(k + 1, n):
                row_i[j] = (akk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def inverse(m: Matrix) -> Matrix:
    """Exact inverse over the rationals; raises SingularMatrixError.

    With D the common denominator of the entries, m^-1 = D adj(D m) / det(D m),
    the adjugate coming from adjugate_product.
    """
    denom = lcm(*(x.denominator for row in m.rows for x in row))
    d, adj = adjugate_product(m.scale(denom), Matrix.identity(m.nrows))
    return adj.scale(Fraction(denom, d))


def kronecker(m: Matrix, n: Matrix) -> Matrix:
    """Kronecker (tensor) product, blocks m[i][j] * n."""
    rows = []
    for mi in range(m.nrows):
        for ni in range(n.nrows):
            row = []
            for mj in range(m.ncols):
                c = m.rows[mi][mj]
                row.extend(c * x for x in n.rows[ni])
            rows.append(row)
    return Matrix._build(rows, m.ncols * n.ncols, m.is_integral and n.is_integral)


def smith_normal_form(m: Matrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix, all >= 0.

    Returns min(nrows, ncols) factors; trailing zeros encode rank deficiency.
    Classical pivot-and-reduce: the least nonzero entry of the trailing
    block becomes the pivot and reduces its row and column, until it
    divides the whole block.
    """
    if not m.is_integral:
        raise TypeError("Smith normal form requires integer entries")
    nrows, ncols = m.shape
    a = [list(row) for row in m.rows]
    k = min(nrows, ncols)
    for t in range(k):
        while True:
            nonzero = [(i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]]
            if not nonzero:
                break
            i, j = min(nonzero, key=lambda ij: abs(a[ij[0]][ij[1]]))
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            done = True
            pivot = a[t]
            for r in range(t + 1, nrows):
                if a[r][t] != 0:
                    c = a[r][t] // pivot[t]
                    a[r] = [x - c * y for x, y in zip(a[r], pivot)]
                    done = done and a[r][t] == 0
            for c in range(t + 1, ncols):
                if pivot[c] != 0:
                    q = pivot[c] // pivot[t]
                    for row in a:
                        row[c] -= q * row[t]
                    done = done and pivot[c] == 0
            if done:
                # pivot must divide the whole trailing block
                offender = next((r for r in range(t + 1, nrows)
                                 if any(a[r][c] % pivot[t] for c in range(t + 1, ncols))), None)
                if offender is None:
                    break
                a[t] = [x + y for x, y in zip(pivot, a[offender])]
    return tuple(abs(a[i][i]) for i in range(k))


# tangent numbers T_1, T_2, ... = 1, 2, 16, 272, ...; grown by doubling
_TANGENT: list[int] = []


def _tangent_number(k: int) -> int:
    # Brent-Harvey: O(n^2) small multiples of integers for the table of n
    if k > len(_TANGENT):
        n = max(k, 2 * len(_TANGENT))
        t = [1] * n
        for j in range(1, n):
            t[j] = j * t[j - 1]
        for i in range(1, n):
            for j in range(i, n):
                t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
        _TANGENT[:] = t
    return _TANGENT[k - 1]


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in Hirzebruch's all-positive indexing.

    B_1 = 1/6, B_2 = 1/30, B_3 = 1/42, ...; equals the absolute value of
    the standard even-index Bernoulli number at index 2k.  (To convert:
    standard B_{2k} = (-1)^{k+1} * bernoulli(k).)  k = 0 is undefined in
    this indexing and rejected.  Computed from the k-th tangent number as
    2k T_k / (4^k (4^k - 1)).
    """
    if k < 1:
        raise ValueError(f"Bernoulli index must be >= 1, got {k}")
    return Fraction(2 * k * _tangent_number(k), 4 ** k * (4 ** k - 1))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# multi-modular kernel (Cohen, A Course in Computational Algebraic Number
# Theory, Alg. 2.2.9; von zur Gathen-Gerhard, Modern Computer Algebra, ch. 5)

_PRIME_CEILING = 1 << 30  # residues and their products stay small CPython ints
_word_primes: list[int] = []  # primes below the ceiling, descending, grown on demand


def word_prime(k: int) -> int:
    """The (k+1)-th largest prime below 2^30, proven prime by trial division."""
    while len(_word_primes) <= k:
        c = (_word_primes[-1] if _word_primes else _PRIME_CEILING + 1) - 2
        while not _is_prime(c):
            c -= 2
        _word_primes.append(c)
    return _word_primes[k]


def crt_lift(residues, size: int, bound_sq: int) -> list[int]:
    """The integers v_0 .. v_{size-1}, each with v_i^2 <= bound_sq, from
    `residues(p)`, the list of v_i mod p, which must be defined at every
    word prime.

    Primes are taken in order until their product M exceeds twice the
    bound H = sqrt(bound_sq), so the symmetric lift into (-M/2, M/2] is the
    only candidate; the loop never stops early on a result that merely
    looks stable.  One further prime, not used by the lift, re-checks the
    result.
    """
    primes = map(word_prime, count())
    values = [0] * size
    modulus = 1
    p = next(primes)
    while modulus * modulus <= 4 * bound_sq:
        inv = pow(modulus, -1, p)
        values = [v + modulus * ((r - v % p) * inv % p)
                  for v, r in zip(values, residues(p))]
        modulus *= p
        p = next(primes)
    half = modulus // 2
    values = [v - modulus if v > half else v for v in values]
    assert [v % p for v in values] == residues(p), "multi-modular self-check failed"
    return values


def _solve_mod(m: list[list[int]], r: list[list[int]], p: int):
    """(det m, m^-1 r) mod p by Gauss-Jordan on [m | r], or None if m is
    singular mod p.  Entries must already be reduced mod p."""
    n = len(m)
    # column col of the working rows is dropped once it has been cleared
    a = [mr + rr for mr, rr in zip(m, r)]
    d = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][0]), None)
        if piv is None:
            return None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        prow = a[col]
        d = d * prow[0] % p
        inv = pow(prow[0], -1, p)
        prow = a[col] = [x * inv % p for x in prow[1:]]
        for i in range(n):
            if i != col:
                row = a[i]
                f = row[0]
                if f:
                    a[i] = [(x - f * y) % p for x, y in zip(row[1:], prow)]
                else:
                    del row[0]
    return d % p, a


def _charpoly_mod(m: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of det(xI - m) mod p, monic of length n+1.

    Similarity transforms bring m to upper Hessenberg form H, then
    p_0 = 1, p_{k+1} = (x - H_kk) p_k - sum_i H_{k-i,k} (prod of the
    subdiagonal H_{j,j-1} for k-i < j <= k) p_{k-i}.
    """
    n = len(m)
    h = [list(row) for row in m]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        tail = h[j + 1][j + 1:]
        inv = pow(h[j + 1][j], -1, p)
        # rows: row_i -= u_i row_{j+1}; then columns: col_{j+1} += sum u_i col_i
        us = []
        for row in h[j + 2:]:
            u = row[j] * inv % p
            us.append(u)
            if u:
                row[j] = 0
                row[j + 1:] = [(x - u * y) % p for x, y in zip(row[j + 1:], tail)]
        if any(us):
            for row in h:
                row[j + 1] = (row[j + 1] + sum(map(mul, us, row[j + 2:]))) % p
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        c = h[k][k]
        new = [(a - c * b) % p for a, b in zip([0] + prev, prev + [0])]
        sub = 1
        for i in range(1, k + 1):
            sub = sub * h[k - i + 1][k - i] % p
            if not sub:
                break
            c = h[k - i][k] * sub % p
            if c:
                q = polys[k - i]
                new[:len(q)] = [(a - c * b) % p for a, b in zip(new, q)]
        polys.append(new)
    return polys[n]


def _shift_mod(q: list[int], c: int, p: int) -> list[int]:
    """Ascending coefficients of q(t - c) mod p, by Horner's rule."""
    if not c:
        return q
    out: list[int] = []
    for coeff in reversed(q):
        out = [(a - c * b) % p for a, b in zip([0] + out, out + [0])]
        out[0] = (out[0] + coeff) % p
    return out


def _pencil_det_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[int]:
    # det(tA + B) mod p, ascending, length n + 1.  With M = cA + B invertible
    # and N = M^-1 A: det(tA + B) = det(M) det(I + sN), s = t - c, and the
    # coefficient of s^j in det(I + sN) is (-1)^j chi_N[n - j].
    n = len(a)
    assert p > n
    ap = [[x % p for x in row] for row in a]
    bp = [[x % p for x in row] for row in b]
    for c in range(n + 1):
        mc = [[(c * x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(ap, bp)]
        solved = _solve_mod(mc, ap, p)
        if solved is not None:
            break
    else:
        # a polynomial of degree <= n vanishing at n + 1 points of F_p
        return [0] * (n + 1)
    d, nmat = solved
    chi = _charpoly_mod(nmat, p)
    s_coeffs = [(-d if j % 2 else d) * chi[n - j] % p for j in range(n + 1)]
    return _shift_mod(s_coeffs, c, p)


# ---------------------------------------------------------------------------
# pencil determinants, by rank alone: fraction-free elimination over Z up
# to _FRACTION_FREE_MAX_RANK, multi-modular above it; adjugate products,
# fraction-free at every rank
#
# Up to that rank the n + 1 Bareiss determinants of a pencil are faster
# than two or more primes of modular elimination plus the CRT; above it
# they cost O(n^4) big-int operations and lose.  Per call, multi-modular
# against fraction-free (CPython 3.11, one core of a 2-vCPU Xeon VM):
# pencils of random unimodular Seifert matrices 0.062 / 0.022 ms at n = 2
# and 0.86 / 0.38 ms at n = 8; germ pencils 1.0 / 1.5 ms at n = 12 and
# 9.1 / 39 ms at n = 30.  An adjugate product is one elimination, O(n^3)
# big-int operations on minors, and needs no such limit.
_FRACTION_FREE_MAX_RANK = 8


def pencil_det_coefficients(a: Matrix, b: Matrix) -> list[int]:
    """Ascending coefficients c_0 .. c_n of det(t*a + b) for square integer
    a, b of equal size n; the list has exactly n + 1 entries.

    Up to rank _FRACTION_FREE_MAX_RANK the determinant is evaluated by
    Bareiss elimination at n + 1 small integer nodes and interpolated
    exactly; above it the multi-modular kernel computes it.
    """
    if a.shape != b.shape or not a.is_square:
        raise ShapeError("pencil determinant needs equal square shapes")
    if not (a.is_integral and b.is_integral):
        raise TypeError("pencil determinant needs integer matrices")
    if a.nrows <= _FRACTION_FREE_MAX_RANK:
        return _pencil_det_fraction_free(a, b)
    return _pencil_det_multimodular(a, b)


def _pencil_det_fraction_free(a: Matrix, b: Matrix) -> list[int]:
    # det(x a + b) at the n + 1 integers x of smallest size, then Newton
    # interpolation, which must come out integral
    n = a.nrows
    xs = range(-((n + 1) // 2), n // 2 + 1)
    ys = [_det_bareiss([[x * u + v for u, v in zip(ra, rb)]
                        for ra, rb in zip(a.rows, b.rows)]) for x in xs]
    coeffs = _interpolate_int(xs, ys)
    assert coeffs is not None, "pencil interpolation is not exact"
    return coeffs + [0] * (n + 1 - len(coeffs))


def _pencil_det_multimodular(a: Matrix, b: Matrix) -> list[int]:
    # Each |c_k| is at most max over |t| = 1 of |det(ta + b)|, hence at most
    # the Hadamard bound prod_i || |a_i| + |b_i| ||_2 over the rows.
    bound_sq = prod(sum((abs(x) + abs(y)) ** 2 for x, y in zip(ra, rb))
                    for ra, rb in zip(a.rows, b.rows))
    return crt_lift(lambda p: _pencil_det_mod(a.rows, b.rows, p), a.nrows + 1, bound_sq)


def _extend_divided_differences(xs: list[int], row: list[int], y: int) -> list[int] | None:
    """The divided differences f[x_k], f[x_(k-1), x_k], ..., f[x_0, ..., x_k]
    at the nodes xs, from `row`, those ending at x_(k-1) (k = len(row)), and
    the value y at x_k; None at the first one that is not an integer."""
    k = len(row)
    out = [y]
    for j in range(k):
        diff, rem = divmod(out[j] - row[j], xs[k] - xs[k - j - 1])
        if rem:
            return None
        out.append(diff)
    return out


def _interpolate_int(xs: list[int], ys) -> list[int] | None:
    """Coefficients of the polynomial of degree < len(xs) through the points
    (xs[i], ys[i]) at distinct integer nodes, trailing zeros dropped, or
    None unless all of them are integers.

    Newton divided differences: those of an integer polynomial at integer
    nodes are integers, and integer divided differences give an integer
    polynomial, so the first inexact division rejects the candidate.
    """
    newton, row = [], []
    for y in ys:
        row = _extend_divided_differences(xs, row, y)
        if row is None:
            return None
        newton.append(row[-1])
    # Horner on the Newton form: p = newton[0] + (t - xs[0]) (newton[1] + ...)
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= xs[k] * coeffs[j + 1]
        coeffs[0] += newton[k]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def adjugate_product(m: Matrix, r: Matrix, d: int | None = None) -> tuple[int, Matrix]:
    """(d, Y) with d = det(m) != 0 and Y = adj(m) @ r = d * m^-1 @ r, so that
    m @ Y = d * r; integer input and output.  Raises SingularMatrixError
    when det m = 0.  A caller that already holds det(m) may pass it as d:
    the elimination yields det(m) anyway, and a given d is checked against
    it.

    Bareiss's fraction-free Gauss-Jordan form of [m | r], at every rank:
    after the step on column c every row holds (c+1)-minors of [m | r] with
    its rows permuted, so each division by the previous pivot is exact,
    and the last step leaves [det(m) I | adj(m) r] of the permuted system.
    Cleared columns are dropped from the working rows.
    """
    if not m.is_square or m.nrows != r.nrows:
        raise ShapeError(f"cannot solve {m.shape} against {r.shape}")
    if not (m.is_integral and r.is_integral):
        raise TypeError("adjugate product needs integer matrices")
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    n, k = r.shape
    a = [list(mr) + list(rr) for mr, rr in zip(m.rows, r.rows)]
    sign = prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][0]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        prow = a[col]
        p = prow[0]
        tail = a[col] = prow[1:]
        for i in range(n):
            if i != col:
                row = a[i]
                f = row[0]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], tail)]
                elif p == prev:
                    a[i] = row[1:]
                else:
                    a[i] = [p * x // prev for x in row[1:]]
        prev = p
    got = sign * prev
    assert d is None or got == d, "given determinant is wrong"
    rows = a if sign == 1 else [[-x for x in row] for row in a]
    return got, Matrix._of_ints(rows, k)
