"""Independent oracles for the test suite.

Each oracle recomputes a quantity along a different route than the
library: Bernoulli numbers by the Akiyama-Tanigawa triangle instead of
tangent numbers, and their denominators by the von Staudt-Clausen theorem,
determinants by cofactor expansion instead of
elimination, Smith invariant factors by gcds of minors instead of row
reduction, signatures by floating-point eigenvalues (test-time only), by
congruence diagonalization over Q and by Descartes' rule on the
characteristic polynomial instead of symmetric Bareiss elimination,
inverses by Gauss-Jordan over Q instead of the
fraction-free adjugate over Z, pencil determinants by Bareiss evaluation and
Lagrange interpolation instead of the multi-modular Hessenberg kernel,
integer interpolation by Lagrange's formula in Fractions instead of Newton
divided differences in integers, exact division in Z[t] by long division
over Q, the factor search over Z[t] by interpolating every product of
divisor choices instead of pruning node by node, elementary divisors over
Q[t, 1/t] by a Smith form that turns every coefficient into a Fraction
instead of keeping ints until a division makes one, primality by Miller-Rabin instead of trial division, symplectic
bases over F_2 on tuples instead of bitmasks, the Hermite-basis
metaboliser walk with no use of the isometric structure, the box rows of
that walk with an isotropic cyclic span by testing A(T^i v, T^j v) = 0 for
all i, j < rank on every box row instead of sieving by two quadratic forms
and testing w^T A w on v, Tv, ..., T^(rank/2 - 1) v, the saturation
of a lattice by the inverse of one Smith form's column transform instead of
the integer kernel taken twice, and the T-invariant metabolisers of a
squarefree chi_T with every g(T) formed by Horner's rule and the kernel of
each product of factors taken by its own Smith form instead of saturating
the sum of the factors' kernels, integer kernels by the column transform
of a Smith form instead of the Hermite form of [m^T | I], and germ Seifert
matrices by folding Sakamoto's binary join instead of one signed
Kronecker product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
from knotforms.cobordism import EpsForm, _chi_factors, _row_hnf
from knotforms.exact import (Matrix, ShapeError, SingularMatrixError, det, kronecker,
                             pencil_det_coefficients)
from knotforms.laurent import (Laurent, _divisors, _eval_int, _trim, laurent_matrix)
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


def von_staudt_denominator(k: int) -> int:
    """Product of primes p with (p-1) | 2k.

    By the von Staudt-Clausen theorem this is the denominator of the
    standard Bernoulli number B_{2k}, hence of `exact.bernoulli(k)`.
    """
    n = 2 * k
    return prod(p for p in range(2, n + 2) if n % (p - 1) == 0 and is_prime_miller_rabin(p))


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
    q, r = poly_divmod_fraction(num, den)
    if r or any(x.denominator != 1 for x in q):
        return None
    return [int(x) for x in q]


def find_factor_exhaustive(coeffs: list[int]) -> tuple[list[int], list[int]] | None:
    """`laurent._find_factor` without pruning: the same nodes, divisor
    choices and order, but every product of choices is interpolated in full
    (by Lagrange's formula) and tried by long division over Q."""
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
        divisor_lists = [_divisors(values[0])] + [
            [s * d0 for d0 in _divisors(v) for s in (1, -1)] for v in values[1:m + 1]]
        for combo in product(*divisor_lists):
            cand = interpolate_lagrange(points[:m + 1], combo)
            if cand is None or len(cand) != m + 1:
                continue
            q = int_divide_exact_over_q(coeffs, cand)
            if q is not None:
                if cand[-1] < 0:
                    cand, q = [-c for c in cand], [-c for c in q]
                return cand, q
    return None


def poly_divmod_fraction(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q, every coefficient a Fraction."""
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


def _poly_mul_fraction(a: list, b: list) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += Fraction(x) * Fraction(y)
    return _trim(out)


def _poly_add_fraction(a: list, b: list) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += Fraction(x)
    for i, x in enumerate(b):
        out[i] += Fraction(x)
    return _trim(out)


def poly_snf_fraction(a: list[list[list[Fraction]]]) -> list[list[Fraction]]:
    """Smith normal form over Q[t] on Fraction coefficient lists; diagonal
    returned.  Pivots on an entry of least degree, clears its row and column
    by quotients, and adds a row whose entries the pivot does not divide."""
    n = len(a)
    diag = []
    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] and (best is None or
                                    len(a[i][j]) < len(a[best[0]][best[1]])):
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
                    q, _ = poly_divmod_fraction(a[i][t], a[t][t])
                    if q:
                        for j in range(t, n):
                            a[i][j] = _poly_add_fraction(
                                a[i][j], [-x for x in _poly_mul_fraction(q, a[t][j])])
                    if a[i][t]:
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q, _ = poly_divmod_fraction(a[t][j], a[t][t])
                    if q:
                        for i in range(t, n):
                            a[i][j] = _poly_add_fraction(
                                a[i][j], [-x for x in _poly_mul_fraction(q, a[i][t])])
                    if a[t][j]:
                        done = False
            if done:
                offender = next((i for i in range(t + 1, n) for j in range(t + 1, n)
                                 if poly_divmod_fraction(a[i][j], a[t][t])[1]), None)
                if offender is None:
                    break
                for j in range(t, n):
                    a[t][j] = _poly_add_fraction(a[t][j], a[offender][j])
        diag.append(a[t][t] if a[t][t] else [])
    return diag


def elementary_divisors_fraction(rows) -> list[Laurent]:
    """Elementary divisors over Q[t, 1/t] of a square Laurent matrix from
    `poly_snf_fraction`, normalized as `laurent.elementary_divisors` does:
    monic, Laurent units stripped, units omitted, zero divisors kept."""
    work = []
    for row in laurent_matrix(rows):
        shift = min((p.min_exponent for p in row if not p.is_zero), default=0)
        work.append([[Fraction(p.coefficient(e)) for e in range(shift, p.max_exponent + 1)]
                     if not p.is_zero else [] for p in row])
    out = []
    for dpoly in poly_snf_fraction(work):
        if not dpoly:
            out.append(Laurent.zero())
            continue
        lp = Laurent.from_coeff_list(dpoly)
        lp = lp.shift(-lp.min_exponent).scale(1 / dpoly[-1])
        if lp != Laurent.one():
            out.append(lp)
    return out


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


def smith_normal_form_with_transforms(m: Matrix) -> tuple[tuple[int, ...], Matrix, Matrix]:
    """Invariant factors plus unimodular U, V with U @ m @ V diagonal.

    Classical pivot-and-reduce: every row move is also made on U, every
    column move on V.
    """
    if not m.is_integral:
        raise TypeError("Smith normal form requires integer entries")
    nrows, ncols = m.shape
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col_i += c * col_j
        for row in a + v:
            row[i] += c * row[j]

    k = min(nrows, ncols)
    for t in range(k):
        while True:
            nonzero = [(i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]]
            if not nonzero:
                break
            i, j = min(nonzero, key=lambda ij: abs(a[ij[0]][ij[1]]))
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            done = True
            for r in range(t + 1, nrows):
                if a[r][t] != 0:
                    add_row(r, t, -(a[r][t] // a[t][t]))
                    if a[r][t] != 0:
                        done = False
            for c in range(t + 1, ncols):
                if a[t][c] != 0:
                    add_col(c, t, -(a[t][c] // a[t][t]))
                    if a[t][c] != 0:
                        done = False
            if done:
                # pivot must divide the whole trailing block
                offender = next((r for r in range(t + 1, nrows)
                                 if any(a[r][c] % a[t][t] for c in range(t + 1, ncols))), None)
                if offender is None:
                    break
                add_row(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    factors = tuple(a[i][i] for i in range(k))
    return factors, Matrix(u, ncols=nrows), Matrix(v, ncols=ncols)


def integer_kernel_smith(m) -> list[tuple[int, ...]]:
    """A basis of ker(m) meet Z^n for an integer matrix m with n columns,
    given as a Matrix or as rows: with U m V = D in Smith form, the columns
    of V past the rank of m, which span a pure lattice because V is
    unimodular."""
    m = m if isinstance(m, Matrix) else Matrix(m)
    factors, _, v = smith_normal_form_with_transforms(m)
    rank = sum(1 for x in factors if x)
    return [tuple(row[j] for row in v.rows) for j in range(rank, v.ncols)]


def lattice_basis_smith(vectors, n: int) -> list[tuple[int, ...]]:
    """A basis of the lattice spanned by integer vectors of length n, any
    generating set: with U K V = D in Smith form, K = U^-1 D V^-1 and U is
    unimodular, so the rows of K span those of D V^-1, the rows of V^-1
    scaled by the nonzero invariant factors."""
    factors, _, v = smith_normal_form_with_transforms(Matrix([list(x) for x in vectors], ncols=n))
    v_inv = inverse_gauss_jordan(v)
    return [tuple(d * int(x) for x in row) for d, row in zip(factors, v_inv.rows) if d]


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


def form_value(f: EpsForm, x, y):
    """A(x, y) for integer coordinate vectors."""
    return sum(xi * aij * yj
               for xi, row in zip(x, f.matrix.rows)
               for aij, yj in zip(row, y))


def invariant_metabolisers_horner(f: EpsForm):
    """Row HNFs of all metabolisers of f when chi_T is squarefree, None
    otherwise: the integer kernels of g(T) for the products g of rank/2
    degree over pairwise isotropic irreducible factors of chi_T, each g(T)
    by Horner's rule (one matrix product per degree) and each kernel by the
    Smith form of g(T)."""
    chi = _chi_factors(f.delta_factorization, f.rank)
    if any(mult > 1 for _, mult in chi):
        return None
    t = f.isometric_structure
    kernels = [integer_kernel_smith(_poly_at_matrix(g, t)) for g, _ in chi]

    def isotropic(i, j):
        return all(form_value(f, x, y) == 0 and form_value(f, y, x) == 0
                   for x in kernels[i] for y in kernels[j])

    k = len(chi)
    pairs = {(i, j): isotropic(i, j) for i in range(k) for j in range(i, k)}
    out = []
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            if (sum(chi[i][0].max_exponent for i in subset) != f.rank // 2
                    or not all(pairs[i, i] for i in subset)
                    or not all(pairs[i, j] for i, j in combinations(subset, 2))):
                continue
            g = Laurent.one()
            for i in subset:
                g = g * chi[i][0]
            out.append(_row_hnf(integer_kernel_smith(_poly_at_matrix(g, t))))
    return out


def _poly_at_matrix(g: Laurent, m) -> list[list[int]]:
    """g(m) by Horner's rule, for an ordinary integer polynomial g."""
    cols = list(zip(*m))
    n, top = len(m), g.max_exponent
    out = [[g.coefficient(top) if i == j else 0 for j in range(n)] for i in range(n)]
    for e in range(top - 1, -1, -1):
        out = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in out]
        for i, row in enumerate(out):
            row[i] += g.coefficient(e)
    return out


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


def cyclic_span_isotropic(a, t, v) -> bool:
    """Is the cyclic span of v under t isotropic for the bilinear form a?
    Forms v, tv, ..., t^(r-1) v for rank r and requires a(x, y) = 0 for
    every two of them, both ways; t^r v is a combination of these
    (Cayley-Hamilton), so they span the cyclic span."""
    powers = _powers(t, v, len(a))
    return all(sum(xi * aij * yj for xi, row in zip(x, a) for aij, yj in zip(row, y)) == 0
               for x in powers for y in powers)


def _powers(t, v, k) -> list[list[int]]:
    """v, tv, ..., t^(k-1) v."""
    powers = [list(v)]
    for _ in range(k - 1):
        powers.append([sum(tij * xj for tij, xj in zip(row, powers[-1])) for row in t])
    return powers


def isotropic_rows_box(f: EpsForm, bound: int, pivot_cols, pivot_vals):
    """The rows with pivot pivot_vals[0] in column pivot_cols[0] whose cyclic
    span under T is A-isotropic, ascending, each with its powers
    v, Tv, ..., T^(rank/2 - 1) v: every row of the box (entries after the
    pivot in [-bound, bound], and in [0, p) above a later pivot p) is formed
    and tested by `cyclic_span_isotropic`, with no quadratic filter in
    front."""
    a, t = f.matrix.rows, f.isometric_structure
    later = dict(zip(pivot_cols[1:], pivot_vals[1:]))
    ranges = [range(later[j]) if j in later else range(-bound, bound + 1)
              for j in range(pivot_cols[0] + 1, f.rank)]
    out = []
    for tail in product(*ranges):
        row = [0] * pivot_cols[0] + [pivot_vals[0], *tail]
        if cyclic_span_isotropic(a, t, row):
            out.append((tuple(row), _powers(t, row, f.rank // 2)))
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


def sakamoto_product(af: Matrix, ag: Matrix, n: int, m: int) -> Matrix:
    """Seifert matrix of f(u) + g(v) from those of f and g by Sakamoto's
    binary join: (-1)^((n+1)(m+1)) times the tensor product, where f has
    n+1 variables and g has m+1."""
    sign = -1 if ((n + 1) * (m + 1)) % 2 else 1
    return kronecker(af, ag).scale(sign)


def quadratic_suspension_seifert(n: int) -> Matrix:
    """Seifert matrix of the sum of n+1 squares, by iterated join from (1).

    Comes out to (1) for n = 0, 3 (mod 4) and (-1) for n = 1, 2 (mod 4).
    """
    if n < 0:
        raise ValueError("need at least one variable")
    return brieskorn_seifert(BrieskornGerm((2,) * (n + 1))).matrix


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
