"""Algebraic knot cobordism: eps-forms, metabolisers, slice obstructions.

An eps-form is a square integer matrix A whose eps-symmetrization
B = A + eps*A^T is unimodular; `EpsForm` refuses anything else, so every
form here has even rank (B mod 2 is alternating and nondegenerate) and an
integral isometric structure T = B^-1 A.  It is null-cobordant when A
vanishes on a pure half-rank sublattice (a metaboliser); two forms are
cobordant when the orthogonal difference is null-cobordant.

Metabolisers are decided from T: every metaboliser L is T-invariant (TL
lies in the B-orthogonal of L, which is L), and every T-invariant
half-dimensional rational subspace on which A vanishes meets Z^n in a
metaboliser.  When the characteristic polynomial of T is squarefree, the
T-invariant subspaces are the kernels of its divisors, so enumerating them
decides metaboliser existence with no entry bound.  Only when it has a
repeated factor does the search fall back to an exhaustive walk over
Hermite-normal-form bases with bounded entries; that fallback's "not found
within bound" is not a proof of non-existence.  The walk keeps its answer,
the least metaboliser in the box, but T prunes it: a row of a metaboliser
has an A-isotropic cyclic span v, Tv, T^2 v, ..., and the other rows are
orthogonal to that span, so rows and bases failing these necessary
conditions are never formed.  And T closes it: the walk chooses rows from
the last one back, and the joint cyclic span of the rows chosen so far lies
in the metaboliser over Q.  A pivot column of that span outside the
basis's pivot columns ends the branch; once the span has half the rank it
is the metaboliser over Q, which is then the span meet Z^n, so no earlier
row is walked.

Alexander polynomials are factored one orthogonal block at a time, so the
difference of two forms never factors a polynomial of higher degree than
the larger form's rank.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import gcd, isqrt
from operator import add, mul

from .exact import (Matrix, ShapeError, adjugate_product, det, smith_normal_form,
                    smith_normal_form_with_transforms)
from .laurent import Factorization, Laurent, det_pencil, factor_int_poly, render_poly
from .quadratic import karl, signature
from .seifert import SeifertMatrix


class EpsFormError(ValueError):
    """Symmetrization is not unimodular (or the sign is invalid)."""


@dataclass(frozen=True)
class EpsForm:
    """An eps-form, checked on construction: eps = +-1, A square with
    integer entries (lists are coerced to a Matrix), det B = +-1.

    Its cobordance stages are computed on first use and held on the form,
    so that the obstruction battery and the metaboliser search of one
    cobordance question share them: B, det B, T and the factorization of
    delta.
    """

    matrix: Matrix
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise EpsFormError(f"eps must be +1 or -1, got {self.eps}")
        if not isinstance(self.matrix, Matrix):
            object.__setattr__(self, "matrix", Matrix(self.matrix))
        if not self.matrix.is_square:
            raise ShapeError(f"eps-form matrix must be square, got {self.matrix.shape}")
        if not self.matrix.is_integral:
            raise TypeError("eps-form entries must be integers")
        d = self.symmetrization_det
        if d not in (1, -1):
            raise EpsFormError(
                f"symmetrization has determinant {d}, not +-1: not an eps-form")

    @property
    def rank(self) -> int:
        return self.matrix.nrows

    @cached_property
    def symmetrization(self) -> Matrix:
        """B = A + eps A^T."""
        return self.matrix + self.matrix.transpose().scale(self.eps)

    @cached_property
    def symmetrization_det(self) -> int:
        """det B, +-1 once construction has succeeded."""
        return det(self.symmetrization)

    @cached_property
    def isometric_structure(self) -> tuple[tuple[int, ...], ...]:
        """T = B^-1 A as integer rows: det(B) adj(B) A, since det B = +-1."""
        d, adj_a = adjugate_product(self.symmetrization, self.matrix,
                                    self.symmetrization_det)
        return (adj_a if d == 1 else -adj_a).rows

    @cached_property
    def delta_factorization(self) -> Factorization:
        """Factorization of delta = det(tA + eps A^T) over Z[t], merged from
        the factorizations of the orthogonal blocks' deltas.

        delta is the product of the blocks' deltas and factorization is
        unique, so each block is factored on its own and the multiplicities
        are summed; the merged product is checked against delta of the
        whole form.
        """
        eps_at = self.matrix.transpose().scale(self.eps)
        sign, unit_exponent, content, counts = 1, 0, 1, {}
        for block in _orthogonal_blocks(self):
            fact = factor_int_poly(det_pencil(self.matrix.submatrix(block, block),
                                              eps_at.submatrix(block, block)))
            sign *= fact.sign
            unit_exponent += fact.unit_exponent
            content *= fact.content
            for poly, mult in fact.factors:
                counts[poly] = counts.get(poly, 0) + mult
        merged = Factorization(sign, unit_exponent, content, list(counts.items()))
        assert merged.product() == det_pencil(self.matrix, eps_at), \
            "per-block factorization does not multiply to delta"
        return merged

    def value(self, x, y):
        """A(x, y) for integer coordinate vectors."""
        return sum(xi * aij * yj
                   for xi, row in zip(x, self.matrix.rows)
                   for aij, yj in zip(row, y))


def eps_form_of(s: SeifertMatrix) -> EpsForm:
    return EpsForm(s.matrix, s.epsilon)


def _direct_sum(a: Matrix, b: Matrix) -> Matrix:
    r1, r2 = a.nrows, b.nrows
    return Matrix([list(row) + [0] * r2 for row in a.rows]
                  + [[0] * r1 + list(row) for row in b.rows], ncols=r1 + r2)


def orthogonal_sum(f1: EpsForm, f2: EpsForm) -> EpsForm:
    if f1.eps != f2.eps:
        raise EpsFormError("orthogonal sum of forms with different eps")
    return EpsForm(_direct_sum(f1.matrix, f2.matrix), f1.eps)


def negate(f: EpsForm) -> EpsForm:
    return EpsForm(-f.matrix, f.eps)


@dataclass(frozen=True)
class Metaboliser:
    """Basis (rows) of a pure half-rank sublattice on which the form vanishes."""

    basis: tuple[tuple[int, ...], ...]


def _basis_matrix(vectors) -> Matrix:
    vectors = [tuple(v) for v in vectors]
    width = len(vectors[0]) if vectors else 0
    return Matrix(vectors, ncols=width)


def is_metaboliser(f: EpsForm, vectors) -> bool:
    """True iff `vectors` spans a metaboliser: half rank, pure (Smith
    normal form of the basis matrix all ones), and A vanishing on it."""
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != f.rank for v in vectors):
        raise ShapeError("candidate vectors have the wrong length")
    if len(vectors) != f.rank // 2:
        return False
    if f.rank == 0:
        return True
    b = _basis_matrix(vectors)
    if any(d != 1 for d in smith_normal_form(b)):
        return False  # not linearly independent or not pure
    return all(f.value(x, y) == 0 for x in vectors for y in vectors)


@dataclass(frozen=True)
class MetaboliserSearch:
    status: str  # "found" | "not-found-within-bound"
    witness: Metaboliser | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def search_metaboliser(f: EpsForm, bound: int) -> MetaboliserSearch:
    """Search for a metaboliser; complete when chi_T is squarefree.

    Witnesses are given in row-style Hermite normal form (pivot columns
    strictly increasing, positive pivots, entries above a pivot reduced
    modulo it).  The box of the bound holds the bases whose entries all lie
    in [-bound, bound]; in it, the witness is the least under the key
    (pivot columns, pivot values, rows).

    When the characteristic polynomial chi_T of T = B^-1 A is squarefree,
    every metaboliser is the integer kernel of g(T) for a divisor g of
    chi_T of degree rank/2, so all of them are listed: the least one in the
    box is returned, else the one with the smallest entries, and
    "not-found-within-bound" then means there is none at all.

    Otherwise the box is walked exhaustively in that order and the first
    metaboliser is returned; only there does the bound cap the search, and
    "not-found-within-bound" is not a proof of non-existence.  The walk
    skips only bases that no metaboliser has (rows whose cyclic span under
    T is not isotropic, rows not orthogonal to the later rows' cyclic
    spans, and rows whose joint cyclic span with the later rows has a pivot
    column outside the basis's), so its answer is the box's least
    metaboliser all the same.  It closes on the joint span: a metaboliser L
    is T-invariant, so the joint cyclic span of its rows from the last one
    back lies in L tensor Q, and once that span has dimension rank/2 it is
    all of it; L is then the span meet Z^n, computed from those rows alone
    instead of walking the earlier ones.

    T and chi_T are read from the stages held on f, so a search after the
    obstruction battery factors nothing again.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    half = f.rank // 2
    if half == 0:
        return MetaboliserSearch(status="found", witness=Metaboliser(basis=()))
    candidates = _invariant_metabolisers(f)
    if candidates is not None:
        if not candidates:
            return MetaboliserSearch(status="not-found-within-bound")
        in_box = [c for c in candidates if _max_entry(c) <= bound]
        if in_box:
            best = min(in_box, key=_hnf_key)
        else:
            best = min(candidates, key=lambda c: (_max_entry(c), _hnf_key(c)))
        return MetaboliserSearch(status="found", witness=Metaboliser(basis=best))
    for basis in _enumerate_hnf(f, f.rank, half, bound):
        if is_metaboliser(f, basis):
            return MetaboliserSearch(status="found", witness=Metaboliser(basis=basis))
    return MetaboliserSearch(status="not-found-within-bound")


def _max_entry(basis) -> int:
    return max(abs(x) for row in basis for x in row)


def _hnf_key(basis):
    pivots = tuple(next(j for j, x in enumerate(row) if x) for row in basis)
    return pivots, tuple(row[j] for row, j in zip(basis, pivots)), basis


def _invariant_metabolisers(f: EpsForm):
    """Hermite normal forms of all metabolisers of f when chi_T is
    squarefree; None when it has a repeated factor.

    The irreducible factors g_i of chi_T have pairwise independent kernels
    V_i = ker g_i(T).  The powers T^0, ..., T^d for the largest factor
    degree d are formed once, and each g_i(T) is the sum of its
    coefficients times them.  A sum of kernels is isotropic exactly when A
    vanishes between every two of its summands, so the subsets of degree
    rank/2 are filtered pairwise, on A x and A^T x formed once per kernel
    vector x.  The kernel of a product of factors is the sum of their
    kernels over Q, so its integer points are the saturation of that sum.
    """
    chi = _chi_factors(f.delta_factorization, f.rank)
    if any(mult > 1 for _, mult in chi):
        return None
    n, t = f.rank, f.isometric_structure
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(max(g.max_exponent for g, _ in chi)):
        powers.append([[sum(map(mul, row, col)) for col in zip(*t)] for row in powers[-1]])
    kernels = []
    for g, _ in chi:
        coeffs = [g.coefficient(k) for k in range(g.max_exponent + 1)]
        kernels.append(_integer_kernel([[sum(map(mul, coeffs, entries)) for entries in zip(*rows)]
                                        for rows in zip(*powers)]))
    a = f.matrix.rows
    images = [[(tuple(sum(map(mul, row, x)) for row in a),
                tuple(sum(map(mul, col, x)) for col in zip(*a))) for x in kernel]
              for kernel in kernels]

    def isotropic(i, j):
        # A(y, x) = y . A x and A(x, y) = y . A^T x
        return not any(sum(map(mul, y, ax)) or sum(map(mul, y, atx))
                       for ax, atx in images[i] for y in kernels[j])

    k = len(chi)
    pairs = {(i, j): isotropic(i, j) for i in range(k) for j in range(i, k)}
    out = []
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            if (sum(chi[i][0].max_exponent for i in subset) == n // 2
                    and all(pairs[i, i] for i in subset)
                    and all(pairs[i, j] for i, j in combinations(subset, 2))):
                out.append(_saturation(*_span_echelon(
                    [x for i in subset for x in kernels[i]])))
    return out


def _integer_kernel(m: list[list[int]]) -> list[tuple[int, ...]]:
    """A basis of ker(m) on Z^n, a pure lattice: with U m V = D in Smith
    form, the columns of V past the rank of m."""
    factors, _, v = smith_normal_form_with_transforms(Matrix(m))
    rank = sum(1 for x in factors if x)
    return [tuple(row[j] for row in v.rows) for j in range(rank, v.ncols)]


def _row_hnf(vectors) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice spanned by independent
    integer vectors: echelon rows, positive pivots, entries above a pivot
    in [0, pivot)."""
    rows = [list(v) for v in vectors]
    top = 0
    for col in range(len(rows[0]) if rows else 0):
        # Euclid down the column: the smallest entry becomes the pivot
        while True:
            live = [i for i in range(top, len(rows)) if rows[i][col]]
            if len(live) <= 1:
                break
            p = min(live, key=lambda i: abs(rows[i][col]))
            rows[top], rows[p] = rows[p], rows[top]
            for i in range(top + 1, len(rows)):
                c = rows[i][col] // rows[top][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[top])]
        if live:
            rows[top], rows[live[0]] = rows[live[0]], rows[top]
            if rows[top][col] < 0:
                rows[top] = [-x for x in rows[top]]
            for i in range(top):
                c = rows[i][col] // rows[top][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[top])]
            top += 1
    return tuple(tuple(row) for row in rows[:top])


def _enumerate_hnf(f: EpsForm, r: int, half: int, bound: int):
    """Yield the HNF bases of the bound box in the order of _hnf_key,
    skipping only bases that cannot span a metaboliser (half >= 1).

    A metaboliser L is T-invariant (see the module docstring), so each row
    v of its basis has an A-isotropic cyclic span v, Tv, T^2 v, ..., and so
    has the joint cyclic span E of any of its rows; E lies in L tensor Q.
    Rows failing the first condition are never listed.  Each pivot
    configuration is walked depth first from its last row towards its
    first, carrying the exact reduced echelon form of E for the rows chosen
    so far, extended by one cyclic span at a time (_joint_span).  A row is
    tried only when it is A- and A^T-orthogonal to E, and then:

    - prune: the echelon pivot columns of L tensor Q are the HNF pivot
      columns, so E with a pivot column outside the configuration's ends
      the branch;
    - close: E of dimension rank/2 is L tensor Q, so L is its saturation
      (E meet Z^n, memoized on E), the only basis with the chosen rows that
      can be a metaboliser; it is kept if its pivot values match, its later
      rows are the chosen rows and its entries lie in the box;
    - walk on: a smaller E goes on to the previous row.

    The last row w of an HNF basis of a pure lattice is primitive, so other
    last rows are dropped.  A row's list depends only on its own pivot and
    the later ones and is memoized on those; the rows of a list that are
    orthogonal to E, with their joint spans grouped by pivot columns, are
    memoized on the list and E, so a configuration's walk shares them with
    every configuration that has the same later pivots.  A list is built
    only when some configuration reaches its row with E below rank/2.  A
    configuration's bases are sorted before they are yielded, so the walk
    yields every metaboliser of the box in the order of the unpruned one.
    """
    a = [list(row) for row in f.matrix.rows]
    at = [list(col) for col in zip(*a)]
    t = f.isometric_structure
    products = [a, [[sum(map(mul, row, col)) for col in zip(*t)] for row in a]]
    # S = M + M^T for M = A and M = A T: v^T M v = v^T S v / 2
    forms = [[[x + y for x, y in zip(row, col)] for row, col in zip(m, zip(*m))]
             for m in products]
    lists: dict = {}
    branches: dict = {}
    closures: dict = {}

    def grown(key, span):
        # the rows of key's list orthogonal to span, with their joint spans,
        # grouped by the pivot columns of the joint span
        if (key, span) not in branches:
            if key not in lists:
                lists[key] = _isotropic_rows(a, at, t, forms, bound, *key)
            checks = _span_checks(a, at, span[1])
            groups: dict = {}
            for row, krylov in lists[key]:
                if any(sum(map(mul, row, c)) for c in checks):
                    continue
                if not span[0] and gcd(*row) != 1:
                    continue  # the last row of a pure lattice is primitive
                joint = _joint_span(span, krylov)
                groups.setdefault(joint[0], []).append((row, joint))
            branches[key, span] = list(groups.items())
        return branches[key, span]

    def closure(span):
        # the HNF of the saturation of span, None when it leaves the box
        if span not in closures:
            basis = _saturation(*span)
            closures[span] = basis if _max_entry(basis) <= bound else None
        return closures[span]

    for pivot_cols in combinations(range(r), half):
        allowed = set(pivot_cols)
        for pivot_vals in product(range(1, bound + 1), repeat=half):
            units = max(pivot_vals) == 1
            found = []
            # (i, E, chosen): the rows after row i are chosen, of joint span E.
            # A stack, not a recursive inner generator: that would hold the
            # memos in a reference cycle until the cyclic collector ran.
            stack = [(half - 1, ((), ()), ())]
            while stack:
                i, span, chosen = stack.pop()
                for cols, rows in grown((pivot_cols[i:], pivot_vals[i:]), span):
                    if not allowed.issuperset(cols):
                        continue
                    for row, joint in rows:
                        later = (row,) + chosen
                        if len(cols) < half:
                            stack.append((i - 1, joint, later))
                        # the saturation has unit pivots exactly when the RREF is integral
                        elif units == all(x[c] == 1 for x, c in zip(joint[1], cols)):
                            basis = closure(joint)
                            if basis is not None and basis[i:] == later and all(
                                    b[j] == p for b, j, p in
                                    zip(basis, pivot_cols[:i], pivot_vals)):
                                found.append(basis)
            yield from sorted(found)


def _isotropic_rows(a, at, t, forms, bound, pivot_cols, pivot_vals):
    """The rows with pivot pivot_vals[0] in column pivot_cols[0] whose
    cyclic span is A-isotropic, ascending, each with the vectors
    v, Tv, ..., T^(r/2 - 1) v of its span (_cyclic_span).

    `forms` holds S = M + M^T for M = A and M = A T, and
    Q(v) = v^T S v = 2 v^T M v.  The entries after the pivot lie in
    [-bound, bound], and in [0, p) above a later pivot p.  An odometer
    steps all but the last two of them, keeping Q and (S v)_c for the free
    columns c at O(r) a step.  Q(v + y e_d + x e_c) is then a quadratic in
    the last two entries y and x: y is swept, and x is an integer root.
    """
    r = len(a)
    jpiv = pivot_cols[0]
    later = dict(zip(pivot_cols[1:], pivot_vals[1:]))
    cols = list(range(jpiv + 1, r))
    lows = [0 if j in later else -bound for j in cols]
    highs = [later.get(j, bound + 1) for j in cols]
    head = cols[:-2]
    v = [0] * r
    v[jpiv] = pivot_vals[0]
    for j, lo in zip(head, lows):
        v[j] = lo
    n = len(cols)
    # (S v)_c of every form, concatenated, and the columns of S that a
    # step in each head column adds to it
    sv = [sum(map(mul, s[c], v)) for s in forms for c in cols]
    steps = [[s[c][j] for s in forms for j in cols] for c in head]
    qs = [sum(v[j] * sum(map(mul, s[j], v)) for j in range(jpiv, r)) for s in forms]
    if n == 0:
        krylov = None if any(qs) else _cyclic_span(at, t, v)
        return [(tuple(v), krylov)] if krylov else []
    c = cols[-1]
    if n >= 2:
        d, sweep = cols[-2], range(lows[-2], highs[-2])
    else:  # one free entry: y = 0 stands in the same column as x
        d, sweep = c, (0,)
    # per form: S_dd, 2 S_cd, S_cc
    coeffs = [(s[d][d], 2 * s[c][d], s[c][c]) for s in forms]
    out = []
    while True:
        # Q(y, x) = Q + y (2 (S v)_d + y S_dd) + x (2 (S v)_c + 2 y S_cd + x S_cc)
        lin = [(q, 2 * sv[i * n + n - 2], 2 * sv[i * n + n - 1])
               for i, q in enumerate(qs)]
        (q, qd, qc), (dd, cd, cc) = lin[0], coeffs[0]
        for y in sweep:
            for x in _integer_roots(cc, qc + y * cd, q + y * (qd + y * dd),
                                    lows[-1], highs[-1]):
                if any(q1 + y * (qd1 + y * dd1) + x * (qc1 + y * cd1 + x * cc1)
                       for (q1, qd1, qc1), (dd1, cd1, cc1) in zip(lin[1:], coeffs[1:])):
                    continue
                row = v[:]
                row[d], row[c] = y, x
                krylov = _cyclic_span(at, t, row)
                if krylov is not None:
                    out.append((tuple(row), krylov))
        k = len(head) - 1
        while k >= 0:
            e = head[k]
            delta = 1 if v[e] + 1 < highs[k] else lows[k] - v[e]
            if delta:
                v[e] += delta
                # Q(v + delta e_e) = Q + 2 delta (S v)_e + delta^2 S_ee
                qs = [q + delta * (2 * sv[i * n + k] + delta * s[e][e])
                      for i, (q, s) in enumerate(zip(qs, forms))]
                sv = (list(map(add, sv, steps[k])) if delta == 1 else
                      [x + delta * y for x, y in zip(sv, steps[k])])
            if delta == 1:
                break
            k -= 1
        if k < 0:
            return out


def _cyclic_span(at, t, row):
    """[v, Tv, ..., T^(r/2 - 1) v] for v = row when A(v, T^k v) = 0 for
    k < r, so that the cyclic span of v is isotropic (T^r v is a combination
    of the earlier powers), else None.  An isotropic subspace has dimension
    at most r/2, so these powers span it whenever it has that dimension."""
    r = len(at)
    powers = [row]
    at_v = [sum(map(mul, col, row)) for col in at]
    w = row
    for k in range(1, r):
        w = [sum(map(mul, t_row, w)) for t_row in t]
        if sum(map(mul, at_v, w)):
            return None
        if k < r // 2:
            powers.append(w)
    return powers


def _span_checks(a, at, vectors):
    """A w and A^T w for the vectors w spanning a subspace: a row is A- and
    A^T-orthogonal to the subspace when its dot product with each is 0."""
    checks = []
    for w in vectors:
        checks.append([sum(map(mul, a_row, w)) for a_row in a])
        checks.append([sum(map(mul, col, w)) for col in at])
    return checks


def _span_echelon(vectors):
    """(cols, rows): the reduced row echelon form of the rational span of
    the integer `vectors`, each row scaled to a primitive integer vector
    with a positive entry in its pivot column cols[i] and zeros in the other
    pivot columns; None when the vectors are dependent (one of them lies in
    the span of those before it)."""
    span = ((), ())
    for v in vectors:
        span = _echelon_add(span, v)
        if span is None:
            return None
    return span


def _joint_span(span, krylov):
    """The echelon form (_span_echelon) of the T-invariant span plus the
    cyclic span of v, from krylov = [v, Tv, ...].  Once a power T^k v lies
    in the sum so far, that sum is T-invariant and holds every later one."""
    for v in krylov:
        grown = _echelon_add(span, v)
        if grown is None:
            break
        span = grown
    return span


def _echelon_add(span, v):
    """The echelon form (_span_echelon) of span plus the integer vector v,
    or None when v lies in span."""
    cols, rows = span
    for c, row in zip(cols, rows):
        v = _cancel(v, row, c)
    lead = next((j for j, x in enumerate(v) if x), None)
    if lead is None:
        return None
    g = gcd(*v) if v[lead] > 0 else -gcd(*v)
    v = tuple(x // g for x in v)
    at = bisect(cols, lead)
    rows = tuple(tuple(_cancel(row, v, lead)) for row in rows)
    return cols[:at] + (lead,) + cols[at:], rows[:at] + (v,) + rows[at:]


def _cancel(row, top, c):
    """row less a rational multiple of top that clears column c, scaled to
    a primitive integer vector."""
    if not row[c]:
        return row
    row = [top[c] * x - row[c] * y for x, y in zip(row, top)]
    g = gcd(*row) or 1
    return [x // g for x in row]


def _saturation(cols, rows) -> tuple[tuple[int, ...], ...]:
    """Row HNF of the pure lattice (rational span) meet Z^n, from the span's
    reduced echelon form (_span_echelon).  When every pivot entry is 1 the
    form is integral, so the lattice is its integer span and it is the HNF;
    otherwise the lattice is the integer kernel of the integer kernel."""
    if all(row[c] == 1 for row, c in zip(rows, cols)):
        return rows
    return _row_hnf(_integer_kernel(_integer_kernel(rows)))


def _integer_roots(a: int, b: int, c: int, lo: int, hi: int) -> list[int]:
    """The integers x in [lo, hi) with a x^2 + b x + c = 0, ascending."""
    if a == 0:
        if b == 0:
            return list(range(lo, hi)) if c == 0 else []
        roots = [-c // b] if c % b == 0 else []
    else:
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        root = isqrt(disc)
        if root * root != disc:
            return []
        roots = sorted({(-b + e * root) // (2 * a) for e in (-1, 1)
                        if (-b + e * root) % (2 * a) == 0})
    return [x for x in roots if lo <= x < hi]


def _orthogonal_blocks(f: EpsForm) -> list[list[int]]:
    """Index sets of the orthogonal blocks of f, in order of their least
    index: the connected components of the graph joining i and j whenever
    A_ij or A_ji is nonzero."""
    rows = f.matrix.rows
    seen: set[int] = set()
    blocks = []
    for start in range(f.rank):
        if start in seen:
            continue
        seen.add(start)
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in range(f.rank):
                if j not in seen and (rows[i][j] or rows[j][i]):
                    seen.add(j)
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def _chi_factors(fact: Factorization, n: int) -> list[tuple[Laurent, int]]:
    """Irreducible factors of chi_T, T = B^-1 A, with multiplicities, from
    the factorization of delta for a rank-n form.

    tA + eps A^T = B((t - 1)T + I), so chi_T(x) = +-x^(n - deg delta)
    x^deg delta delta((x - 1)/x): a factor f of degree d gives the
    homogeneous image x^d f((x - 1)/x), the unit t^k gives (x - 1)^k, and
    the degree drop gives x^(n - deg delta).
    """
    out = [(Laurent({0: -1, 1: 1}), fact.unit_exponent)] if fact.unit_exponent else []
    degree = fact.unit_exponent
    for poly, mult in fact.factors:
        # Horner in (x - 1)/x, homogenized: h <- (x - 1) h + c_(d-j) x^j
        c = poly.coeff_list()
        d = len(c) - 1
        h = [c[d]]
        for j in range(1, d + 1):
            h = [a - b for a, b in zip([0] + h, h + [0])]
            h[j] += c[d - j]
        out.append((Laurent.from_coeff_list(h), mult))
        degree += d * mult
    if n > degree:
        out.append((Laurent.t(), n - degree))
    return out


def fox_milnor(fact: Factorization) -> bool:
    """Does the factored polynomial have the form Q(t) * Q(1/t) up to a unit
    +-t^k?

    Checked on the irreducible factorization over Z[t]: after stripping the
    unit, the content must be a perfect square, every self-reciprocal
    irreducible factor must occur with even multiplicity, and the remaining
    factors must pair up exactly with their reciprocals.  Necessary for the
    Alexander polynomial of any null-cobordant knot.
    """
    if _isqrt_exact(fact.content) is None:
        return False
    counts = {poly: mult for poly, mult in fact.factors}
    while counts:
        poly, mult = next(iter(counts.items()))
        mirror = _reciprocal_normalized(poly)
        if mirror == poly:
            if mult % 2 != 0:
                return False
            del counts[poly]
        else:
            if counts.get(mirror, 0) != mult:
                return False
            del counts[poly]
            del counts[mirror]
    return True


def _reciprocal_normalized(p: Laurent) -> Laurent:
    return p.reciprocal().unit_normalize()


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class Obstruction:
    name: str
    passed: bool
    certificate: str


@dataclass(frozen=True)
class ObstructionReport:
    checks: tuple[Obstruction, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> Obstruction | None:
        return next((c for c in self.checks if not c.passed), None)


def null_cobordance_obstructions(f: EpsForm) -> ObstructionReport:
    """Battery of necessary conditions for null-cobordance.

    Vanishing signature of the symmetrization when eps = +1; the
    Fox-Milnor factorization condition on det(tA + eps A^T), read from the
    form's per-block factorization; and a vanishing Arf invariant when
    eps = -1 (a cobordism invariant of odd-dimensional knots).  Each check
    carries a human-readable certificate.  All-pass does not prove
    null-cobordance.  (The rank is even for every eps-form, so rank parity
    is no check.)
    """
    checks = []
    if f.eps == 1:
        sig = signature(f.symmetrization)
        checks.append(Obstruction(
            name="signature", passed=sig == 0,
            certificate=f"signature of symmetrization = {sig}"))
    fact = f.delta_factorization
    fm = fox_milnor(fact)
    checks.append(Obstruction(
        name="fox-milnor", passed=fm,
        certificate=f"delta = {render_poly(fact.product().unit_normalize())}: "
                    f"{'factors as Q(t)Q(1/t)' if fm else 'does not factor as Q(t)Q(1/t)'}"))
    if f.eps == -1:
        arf_value = karl(SeifertMatrix(f.matrix, q=1))
        checks.append(Obstruction(
            name="arf", passed=arf_value == 0,
            certificate=f"Arf invariant = {arf_value}"))
    return ObstructionReport(checks=tuple(checks))


@dataclass(frozen=True)
class CobordanceVerdict:
    status: str  # "cobordant" | "not-cobordant" | "unknown-within-bound"
    witness: Metaboliser | None = None
    obstruction: Obstruction | None = None


def algebraically_cobordant(f1: EpsForm, f2: EpsForm, bound: int) -> CobordanceVerdict:
    """Decide cobordance of f1 and f2.

    Builds the difference f1 (+) -f2 as one form, whose stages the
    obstruction battery and the metaboliser search share, and runs the
    battery first; a failed necessary condition settles the question
    negatively.  Otherwise the metaboliser search either produces a witness
    (cobordant) or reports none (unknown); only when chi_T has a repeated
    factor does the bound limit that search.
    """
    if f1.eps != f2.eps:
        raise EpsFormError("cobordance needs forms of the same eps")
    difference = EpsForm(_direct_sum(f1.matrix, -f2.matrix), f1.eps)
    report = null_cobordance_obstructions(difference)
    if not report.all_pass:
        return CobordanceVerdict(status="not-cobordant",
                                 obstruction=report.first_failure())
    result = search_metaboliser(difference, bound)
    if result.found:
        return CobordanceVerdict(status="cobordant", witness=result.witness)
    return CobordanceVerdict(status="unknown-within-bound")
