"""Independent oracles for the test suite.

Each oracle recomputes a quantity along a different route than the
library: Bernoulli numbers by the Akiyama-Tanigawa triangle instead of the
binomial recurrence, determinants by cofactor expansion instead of
elimination, Smith invariant factors by gcds of minors instead of row
reduction, signatures by floating-point eigenvalues (test-time only), by
congruence diagonalization over Q and by Descartes' rule on the
characteristic polynomial instead of symmetric Bareiss elimination,
inverses by Gauss-Jordan over Q instead of the
multi-modular adjugate, pencil determinants by Bareiss evaluation and
Lagrange interpolation instead of the multi-modular Hessenberg kernel,
integer interpolation by Lagrange's formula in Fractions instead of Newton
divided differences in integers, exact division in Z[t] by long division
over Q, primality by Miller-Rabin instead of trial division, symplectic
bases over F_2 on tuples instead of bitmasks, the Hermite-basis
metaboliser walk with no use of the isometric structure, and the saturation
of a lattice by the inverse of one Smith form's column transform instead of
the integer kernel taken twice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from knotforms.cobordism import EpsForm
from knotforms.exact import (Matrix, ShapeError, SingularMatrixError, det,
                             pencil_det_coefficients, smith_normal_form_with_transforms)
from knotforms.laurent import Laurent, _poly_divmod, _trim
from knotforms.quadratic import DegenerateFormError


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """Standard signed Bernoulli number B_n (B_1 = -1/2) via the
    Akiyama-Tanigawa triangle."""
    a = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    value = a[0]
    if n == 1:
        value = -value  # triangle yields the B_1 = +1/2 convention
    return value


def det_cofactor(m: Matrix):
    """Determinant by recursive cofactor expansion along the first row."""
    n = m.nrows
    if n == 0:
        return 1
    if n == 1:
        return m.rows[0][0]
    total = 0
    for j in range(n):
        c = m.rows[0][j]
        if c == 0:
            continue
        minor = Matrix([[m.rows[i][k] for k in range(n) if k != j]
                        for i in range(1, n)], ncols=n - 1)
        total += (-1) ** j * c * det_cofactor(minor)
    return total


def laurent_det_cofactor(rows: list[list[Laurent]]) -> Laurent:
    """Determinant of a Laurent matrix by cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Laurent.one()
    if n == 1:
        return rows[0][0]
    total = Laurent.zero()
    for j in range(n):
        c = rows[0][j]
        if c.is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = c * laurent_det_cofactor(minor)
        if j % 2:
            term = -term
        total = total + term
    return total


def det_pencil_interpolation(a: Matrix, b: Matrix) -> Laurent:
    """det(t*a + b) for integer matrices from n+1 exact Bareiss determinant
    evaluations at t = 0..n and Lagrange interpolation; O(n^4)."""
    if a.shape != b.shape or not a.is_square:
        raise ShapeError("pencil determinant needs equal square shapes")
    n = a.nrows
    if n == 0:
        return Laurent.one()
    xs = list(range(n + 1))
    ys = [det(a.scale(x) + b) for x in xs]
    coeffs = interpolate_lagrange(xs, ys)
    assert coeffs is not None
    return Laurent.from_coeff_list(coeffs)


def interpolate_lagrange(xs: list[int], ys) -> list[int] | None:
    """Lagrange interpolation; None unless all coefficients are integers."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # poly = prod_{j != i} (t - x_j), denom = prod_{j != i} (x_i - x_j)
        poly = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            poly = [Fraction(0)] + poly
            for k in range(len(poly) - 1):
                poly[k] -= xs[j] * poly[k + 1]
            denom *= xs[i] - xs[j]
        term = Fraction(ys[i]) / denom
        for k in range(len(poly)):
            coeffs[k] += term * poly[k]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return _trim([int(c) for c in coeffs])


def int_divide_exact_over_q(num: list[int], den: list[int]) -> list[int] | None:
    """Quotient of integer polynomials by long division over Q in Fractions;
    None unless the remainder is zero and the quotient is integral."""
    q, r = _poly_divmod(num, den)
    if r or any(x.denominator != 1 for x in q):
        return None
    return [int(x) for x in q]


def is_prime_miller_rabin(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, which is deterministic for
    n < 3215031751 (Jaeschke 1993)."""
    assert n < 3215031751
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def symplectic_basis_f2_tuples(b: Matrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Greedy symplectic reduction over F_2 on coordinate tuples, pairing by
    the full double sum x^T b y; same order, pairs and radical vector as
    `quadratic.symplectic_basis_f2`.  O(n^4)."""
    n = b.nrows
    rows = [[x % 2 for x in row] for row in b.rows]

    def pairing(x, y):
        return sum(x[i] * rows[i][j] * y[j] for i in range(n) for j in range(n)) % 2

    def add(x, y):
        return tuple((u + v) % 2 for u, v in zip(x, y))

    remaining = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    pairs = []
    while remaining:
        e = remaining.pop(0)
        f = next((f for f in remaining if pairing(e, f) == 1), None)
        if f is None:
            raise DegenerateFormError(f"radical vector {e}: form is degenerate",
                                      radical_vector=e)
        remaining.remove(f)
        reduced = []
        for v in remaining:
            v1 = add(v, e) if pairing(v, f) else v
            v2 = add(v1, f) if pairing(v1, e) else v1
            if any(v2):
                reduced.append(v2)
        remaining = reduced
        pairs.append((e, f))
    return pairs


def snf_via_minor_gcds(m: Matrix) -> tuple[int, ...]:
    """Invariant factors d_i = g_i / g_(i-1), with g_i the gcd of all
    i x i minors (g_0 = 1).  Entirely different algorithm from row
    reduction; exponential, so keep matrices small."""
    r, c = m.shape
    k = min(r, c)
    gs = [1]
    for size in range(1, k + 1):
        g = 0
        for rows_idx in combinations(range(r), size):
            for cols_idx in combinations(range(c), size):
                sub = m.submatrix(rows_idx, cols_idx)
                g = gcd(g, det_cofactor(sub))
        gs.append(g)
    factors = []
    for i in range(1, k + 1):
        if gs[i] == 0:
            factors.append(0)
        else:
            factors.append(gs[i] // gs[i - 1])
    return tuple(factors)


def float_signature(m: Matrix) -> int:
    """Signature via numpy eigenvalues; float oracle for test time only."""
    import numpy as np
    if m.nrows == 0:
        return 0
    arr = np.array([[float(x) for x in row] for row in m.rows])
    eigs = np.linalg.eigvalsh(arr)
    pos = int((eigs > 1e-9).sum())
    neg = int((eigs < -1e-9).sum())
    return pos - neg


def signature_congruence(m: Matrix) -> int:
    """Signature of a symmetric matrix, exactly.

    Congruence diagonalization with symmetric pivoting: a nonzero diagonal
    pivot contributes its sign; when the diagonal is all zero but the form
    is not, adding a suitable row+column first creates a nonzero diagonal
    entry (such a block always splits off a +1/-1 pair, contributing 0).
    """
    if not m.is_symmetric():
        raise ShapeError("signature is defined for symmetric matrices")
    a = [[Fraction(x) for x in row] for row in m.rows]
    active = list(range(m.nrows))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is None:
            offdiag = next(((i, j) for i in active for j in active
                            if i != j and a[i][j] != 0), None)
            if offdiag is None:
                break  # remaining block is zero: contributes nothing
            i, j = offdiag
            # congruence by (row_i += row_j, col_i += col_j): new a_ii = 2 a_ij
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            pivot = i
        d = a[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        # Schur complement: preserves symmetry since a[i][pivot] = a[pivot][i]
        for i in active:
            f = a[i][pivot] / d
            if f:
                for j in active:
                    a[i][j] -= f * a[pivot][j]
        for i in active:
            a[pivot][i] = a[i][pivot] = Fraction(0)
    return pos - neg


def signature_descartes(m: Matrix) -> int:
    """Signature of a symmetric matrix, exactly.

    A symmetric matrix has only real eigenvalues, so its characteristic
    polynomial chi(t) = det(tI - m) is real-rooted, and for a real-rooted
    polynomial Descartes' rule of signs is exact: chi has as many positive
    roots as its coefficient sequence has sign changes (zeros skipped), and
    as many negative roots as that of chi(-t).  A rational m is scaled by
    its (positive) common denominator first.
    """
    if not m.is_symmetric():
        raise ShapeError("signature is defined for symmetric matrices")
    denom = lcm(*(x.denominator for row in m.rows for x in row))
    chi = pencil_det_coefficients(Matrix.identity(m.nrows), m.scale(-denom))

    def sign_changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return sign_changes(chi) - sign_changes([-c if k % 2 else c for k, c in enumerate(chi)])


def inverse_gauss_jordan(m: Matrix) -> Matrix:
    """Exact inverse over the rationals; raises SingularMatrixError."""
    if not m.is_square:
        raise ShapeError(f"inverse of non-square {m.shape} matrix")
    n = m.nrows
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return Matrix([row[n:] for row in a], ncols=n)


def saturation_smith(vectors) -> list[tuple[int, ...]]:
    """A basis of the pure lattice (rational span of the independent integer
    `vectors`) meet Z^n.  With U K V = D in Smith form, K = U^-1 D V^-1 and
    D has no zero on its diagonal, so K spans over Q the first rows of
    V^-1, which span a pure lattice because V^-1 is unimodular."""
    k = Matrix([list(v) for v in vectors], ncols=len(vectors[0]))
    factors, _, v = smith_normal_form_with_transforms(k)
    assert all(factors), "vectors are dependent"
    v_inv = inverse_gauss_jordan(v)
    return [tuple(int(x) for x in row) for row in v_inv.rows[:k.nrows]]


def brute_force_rank1_metaboliser_absent(form_matrix: Matrix, bound: int) -> bool:
    """Exhaustively confirm no primitive vector v with |v_i| <= bound has
    A(v, v) = 0 (rank-2 forms only)."""
    assert form_matrix.shape == (2, 2)
    for x1 in range(-bound, bound + 1):
        for x2 in range(-bound, bound + 1):
            if (x1, x2) == (0, 0):
                continue
            if gcd(x1, x2) != 1:
                continue
            v = (x1, x2)
            value = sum(v[i] * form_matrix.rows[i][j] * v[j]
                        for i in range(2) for j in range(2))
            if value == 0:
                return False
    return True


def enumerate_hnf_unpruned(f: EpsForm, r: int, half: int, bound: int):
    """Yield HNF candidate bases, pruned row by row.

    The metaboliser walk without the isometric structure: rows are kept on
    A(v, v) = 0 and pairwise A-orthogonality alone, and every row is
    evaluated in full.

    For each pivot configuration the self-isotropic candidate rows are
    precomputed (with cached A.v and A^T.v, so that pairwise orthogonality
    checks are single dot products) and memoized across pivot-value
    combinations that share the same constraint pattern.
    """
    a_rows = [list(row) for row in f.matrix.rows]
    at_rows = [list(row) for row in f.matrix.transpose().rows]
    memo: dict = {}
    for pivot_cols in combinations(range(r), half):
        for pivot_vals in product(range(1, bound + 1), repeat=half):
            cands = []
            for i in range(half):
                caps = tuple(min(pivot_vals[k], bound + 1)
                             for k in range(i + 1, half))
                key = (pivot_cols, i, pivot_vals[i], caps)
                lst = memo.get(key)
                if lst is None:
                    lst = _isotropic_rows(a_rows, at_rows, r, bound, pivot_cols,
                                          pivot_vals[i], i, caps)
                    memo[key] = lst
                if not lst:
                    break
                cands.append(lst)
            else:
                yield from _combine(cands, 0, ())


def _isotropic_rows(a_rows, at_rows, r, bound, pivot_cols, pivot_val, i, caps):
    jpiv = pivot_cols[i]
    cols = []
    ranges = []
    for j in range(jpiv + 1, r):
        if j in pivot_cols:
            k = pivot_cols.index(j)
            if k > i:  # entry above a later pivot: reduced modulo that pivot
                cols.append(j)
                ranges.append(range(0, caps[k - i - 1]))
        else:
            cols.append(j)
            ranges.append(range(-bound, bound + 1))
    out = []
    for combo in product(*ranges):
        row = [0] * r
        row[jpiv] = pivot_val
        for j, v in zip(cols, combo):
            row[j] = v
        av = [sum(arow[j] * row[j] for j in range(jpiv, r)) for arow in a_rows]
        if sum(row[j] * av[j] for j in range(jpiv, r)) != 0:
            continue
        atv = [sum(arow[j] * row[j] for j in range(jpiv, r)) for arow in at_rows]
        out.append((tuple(row), av, atv))
    return out


def _combine(cands, i, chosen):
    if i == len(cands):
        yield tuple(entry[0] for entry in chosen)
        return
    for entry in cands[i]:
        v = entry[0]
        for _, aw, atw in chosen:
            # A(w, v) = v . (A^T w) and A(v, w) = v . (A w)
            if sum(a * b for a, b in zip(v, aw)) != 0:
                break
            if sum(a * b for a, b in zip(v, atw)) != 0:
                break
        else:
            yield from _combine(cands, i + 1, chosen + (entry,))


def brieskorn_char_poly_numeric(exponents: tuple[int, ...], monic_coeffs: list) -> bool:
    """Check integer coefficients against the root-of-unity product
    prod over 0 < k_i < a_i of (t - prod_i zeta_(a_i)^(k_i)),
    expanded numerically.  Returns True when every coefficient matches
    after rounding and the residual is tiny."""
    import numpy as np
    from itertools import product as iproduct
    roots = []
    for ks in iproduct(*[range(1, a) for a in exponents]):
        z = 1.0 + 0.0j
        for k, a in zip(ks, exponents):
            z *= np.exp(2j * np.pi * k / a)
        roots.append(z)
    poly = np.poly(np.array(roots)) if roots else np.array([1.0])
    # numpy returns descending coefficients
    approx = poly[::-1]
    exact = np.array([float(c) for c in monic_coeffs], dtype=complex)
    if len(approx) != len(exact):
        return False
    return bool(np.allclose(approx, exact, atol=1e-6))
