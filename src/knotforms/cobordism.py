"""Algebraic knot cobordism: eps-forms, metabolisers, slice obstructions.

An eps-form is a square integer matrix A whose eps-symmetrization
B = A + eps*A^T is unimodular; `EpsForm` refuses anything else (the sums
and negations built here from checked forms are not rechecked), so every
form here has even rank (B mod 2 is alternating and nondegenerate) and an
integral isometric structure T = B^-1 A.  It is null-cobordant when A
vanishes on a pure half-rank sublattice (a metaboliser); two forms are
cobordant when the orthogonal difference is null-cobordant.

Metabolisers are decided from T: every metaboliser L is T-invariant (TL
lies in the B-orthogonal of L, which is L), and every T-invariant
half-dimensional rational subspace on which A vanishes meets Z^n in a
metaboliser.  On a T-invariant subspace E, A(v, e) = B(v, Te) and
A(e, v) = eps (B(v, e) - B(v, Te)), so A vanishes between v and E both
ways exactly when B(v, E) = 0.  And since T^T B = B (I - T) (below),
B(g(T) x, y) = B(x, g(I - T) y): the kernel of g(T) is B-orthogonal to
the kernel of every factor prime to its mirror g*(x) = +-g(1 - x).

When the characteristic polynomial chi_T of T is squarefree, the
T-invariant subspaces are the sums of the kernels of its factors, and B
pairs each kernel only with its mirror's.  A metaboliser then holds one
kernel of each mirror pair, so one exists exactly when no factor is its
own mirror, and that is the Fox-Milnor condition: a squarefree chi_T that
passes the obstruction battery always has a metaboliser, built with no
entry bound.  Only when chi_T has a repeated factor does the search fall
back to an exhaustive walk over Hermite-normal-form bases with bounded
entries; that fallback's "not found within bound" is not a proof of
non-existence.  The walk keeps its answer, the least metaboliser in the
box, but T prunes it: a row of a metaboliser has an A-isotropic cyclic
span v, Tv, T^2 v, ..., and the other rows are B-orthogonal to that span
(one B product per spanning vector), so rows and bases failing these
necessary conditions are never formed.  And T closes it: the walk chooses
rows from the last one back, and the joint cyclic span of the rows chosen
so far lies in the metaboliser over Q.  A pivot column of that span
outside the basis's pivot columns ends the branch; once the span has half
the rank it is the metaboliser over Q, which is then the span meet Z^n,
so no earlier row is walked.

The walk tests a row's cyclic span by Q_A(w) = w^T A w on powers of T.
Since B^T = eps B, T^T B = eps A^T = B (I - T), so the numbers
c_m = v^T B T^m v obey c_m = eps sum_i C(m, i) (-1)^i c_i, and
A(T^i v, T^j v) = sum_k C(i, k) (-1)^k c_(j+1+k).  When c_1 ... c_(2j)
vanish, Q_A(T^j v) = (-1)^j c_(2j+1); when c_0 ... c_(2j-1) vanish,
(T^j v)^T B (T^j v) = (-1)^j c_(2j), which is 2 Q_A(T^j v) for eps = +1.
The recurrence fixes every c_m with eps (-1)^m = -1 from the lower ones,
so by induction c_1 ... c_(r-1) vanish exactly when Q_A(T^j v) = 0 for
j < r/2, and then by Cayley-Hamilton so does every c_m, m >= 1: for either
sign, the cyclic span of v is A-isotropic exactly when Q_A vanishes on
v, Tv, ..., T^(r/2 - 1) v.  The walk sieves its box rows by the first two
of these, v^T A v = 0 and v^T T^T A T v = 0, before it takes a cyclic
span.  Both are quadratic in the last free entry x of a row, and the
combination of the two with no x^2 term is linear in x: each setting of
the other entries leaves one candidate x, found by one exact division, and
only where that combination vanishes for every x are the integer roots of
a quadratic taken.  A row that passes the sieve has Q_A(v) = Q_A(Tv) = 0
already, so its cyclic span takes Q_A from T^2 v on, multiplying by the
nonzero entries of A and T only.

delta = det(tA + eps A^T), the pipeline's Alexander polynomial, is one
pencil per orthogonal block, factored block by block (each distinct block
polynomial once), and det B is read off it as delta(1).  Sums and
negations carry their summands' block pencils: a difference takes none of
its own.  Fox-Milnor is refuted from delta(-1) alone when |delta(-1)| is
not a square.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import gcd, isqrt, prod
from operator import add, mul

from .exact import Matrix, ShapeError, adjugate_product
from .laurent import Factorization, Laurent, det_pencil, factor_int_poly, render_poly
from .invariants import Invariants
from .seifert import SeifertMatrix


class EpsFormError(ValueError):
    """Symmetrization is not unimodular (or the sign is invalid)."""


# the middle dimension of an eps-form's Seifert matrix: only its parity
# enters a stage
_Q = {-1: 1, 1: 2}


class EpsForm(Invariants):
    """An eps-form, checked on construction: eps = +-1 and det B = +-1.

    It is the invariant pipeline of the Seifert matrix A with q = 1 for
    eps = -1 and q = 2 for eps = +1, so SeifertMatrix checks that A is
    square with integer entries (lists are coerced to a Matrix), and the
    form reads the pipeline's stages: delta = det(tA + eps A^T) is
    alexander_raw, det B = delta(1), the intersection form eps B is the one
    matrix built for B, form_signature is the signature of B (eps = +1) and
    arf its Arf invariant (eps = -1), read off delta's Conway form.  Forms
    built from checked forms by `_of_blocks` are not rechecked.

    Its cobordance stages are computed on first use and held on the form,
    so that the obstruction battery and the metaboliser search of one
    cobordance question share them: the blocks' deltas, whose product is
    delta, its factorization, the intersection form and T.
    """

    def __init__(self, matrix: Matrix, eps: int):
        if eps not in _Q:
            raise EpsFormError(f"eps must be +1 or -1, got {eps}")
        super().__init__(SeifertMatrix(matrix, _Q[eps]))
        if not self.unimodular:
            raise EpsFormError(f"symmetrization has determinant {self.alexander_raw(1)}, "
                               "not +-1: not an eps-form")

    @classmethod
    def _of_blocks(cls, matrix: Matrix, eps: int, block_deltas: list[Laurent]) -> "EpsForm":
        """A form built from checked forms, holding its blocks' deltas in
        the order of _orthogonal_blocks: nothing is checked."""
        f = object.__new__(cls)
        Invariants.__init__(f, SeifertMatrix(matrix, _Q[eps]))
        f.block_deltas = block_deltas
        return f

    def __repr__(self) -> str:
        return f"EpsForm(matrix={self.matrix!r}, eps={self.eps})"

    @property
    def matrix(self) -> Matrix:
        return self.seifert.matrix

    @property
    def eps(self) -> int:
        return self.seifert.epsilon

    @cached_property
    def isometric_structure(self) -> tuple[tuple[int, ...], ...]:
        """T = B^-1 A as integer rows: eps d adj(eps B) A for the
        intersection form eps B of determinant d = +-1, which
        adjugate_product checks against its elimination of eps B."""
        d, adj_a = adjugate_product(self.intersection, self.matrix, self.det_intersection)
        return (adj_a if self.eps * d == 1 else -adj_a).rows

    @cached_property
    def block_deltas(self) -> list[Laurent]:
        """det(tA + eps A^T) of each orthogonal block, in the order of
        _orthogonal_blocks: the only pencils the form takes."""
        eps_at = self.matrix.transpose().scale(self.eps)
        return [det_pencil(self.matrix.submatrix(block, block), eps_at.submatrix(block, block))
                for block in _orthogonal_blocks(self)]

    @cached_property
    def alexander_raw(self) -> Laurent:
        """delta = det(tA + eps A^T), the product of the blocks' deltas."""
        return prod(self.block_deltas, start=Laurent.one())

    @cached_property
    def delta_factorization(self) -> Factorization:
        """Factorization of delta over Z[t]: each distinct block delta is
        factored once (a difference repeats its summands' block deltas) and,
        factorization being unique, the multiplicities are summed; the
        merged product is checked against delta."""
        sign, unit_exponent, content, counts, facts = 1, 0, 1, {}, {}
        for block_delta in self.block_deltas:
            if block_delta not in facts:
                facts[block_delta] = factor_int_poly(block_delta)
            fact = facts[block_delta]
            sign *= fact.sign
            unit_exponent += fact.unit_exponent
            content *= fact.content
            for poly, mult in fact.factors:
                counts[poly] = counts.get(poly, 0) + mult
        merged = Factorization(sign, unit_exponent, content, list(counts.items()))
        assert merged.product() == self.alexander_raw, \
            "per-block factorization does not multiply to delta"
        return merged


def eps_form_of(s: SeifertMatrix) -> EpsForm:
    return EpsForm(s.matrix, s.epsilon)


def _direct_sum(a: Matrix, b: Matrix) -> Matrix:
    r1, r2 = a.nrows, b.nrows
    rows = ([list(row) + [0] * r2 for row in a.rows]
            + [[0] * r1 + list(row) for row in b.rows])
    return Matrix._build(rows, r1 + r2, a.is_integral and b.is_integral)


def orthogonal_sum(f1: EpsForm, f2: EpsForm) -> EpsForm:
    """f1 (+) f2: det B is multiplicative, and its blocks are f1's, then f2's."""
    if f1.eps != f2.eps:
        raise EpsFormError("orthogonal sum of forms with different eps")
    return EpsForm._of_blocks(_direct_sum(f1.matrix, f2.matrix), f1.eps,
                              f1.block_deltas + f2.block_deltas)


def negate(f: EpsForm) -> EpsForm:
    """-f, with f's block deltas: a block's B is unimodular and alternating
    mod 2, so the block has even rank and the delta of -A_b is delta_b."""
    return EpsForm._of_blocks(-f.matrix, f.eps, f.block_deltas)


@dataclass(frozen=True)
class Metaboliser:
    """Basis (rows) of a pure half-rank sublattice on which the form vanishes."""

    basis: tuple[tuple[int, ...], ...]


def is_metaboliser(f: EpsForm, vectors) -> bool:
    """True iff `vectors` spans a metaboliser: half rank, pure, and A
    vanishing on it.  The k rows of X are independent and span a pure
    lattice exactly when the columns of X span Z^k, that is when their row
    HNF is the k x k identity.  Entries must be integers (an int-valued
    Fraction counts as one); others raise TypeError."""
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != f.rank for v in vectors):
        raise ShapeError("candidate vectors have the wrong length")
    if len(vectors) != f.rank // 2:
        return False
    if f.rank == 0:
        return True
    basis = Matrix(vectors)  # int-valued Fractions become ints
    if not basis.is_integral:
        raise TypeError("metaboliser candidates need integer entries")
    vectors = basis.rows
    if _row_hnf(zip(*vectors)) != Matrix.identity(len(vectors)).rows:
        return False  # not linearly independent or not pure
    # the Gram matrix X A X^T, from the rows of X A
    xa = [[sum(map(mul, x, col)) for col in zip(*f.matrix.rows)] for x in vectors]
    return not any(sum(map(mul, row, y)) for row in xa for y in vectors)


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
    every metaboliser is the integer kernel of g(T) for a g holding one
    factor of each mirror pair (g and g*(x) = +-g(1 - x)), so all of them
    are built: the least one in the box is returned, else the one with the
    smallest entries.  There is none exactly when a factor is its own
    mirror, which Fox-Milnor refutes, so after a passing battery the search
    always finds a witness.

    Otherwise the box is walked exhaustively in that order and the first
    metaboliser is returned; only there does the bound cap the search, and
    "not-found-within-bound" is not a proof of non-existence.  The walk
    skips only bases that no metaboliser has (rows whose cyclic span under
    T is not isotropic, rows not B-orthogonal to the later rows' cyclic
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
    squarefree ([] when a factor is its own mirror); None when chi_T has a
    repeated factor.

    A metaboliser is the saturated sum of one kernel ker g(T) of each
    mirror pair (module docstring): a factor of delta and its reciprocal,
    whose images in chi_T are mirrors, and the x - 1 of the t-power and the
    x of the degree drop.  The sums come in the lexicographic order of their
    factors' indices into _chi_factors.  The powers T^0, ..., T^d for the
    largest factor degree d are formed once, and each g(T) is the sum of
    its coefficients times them.
    """
    fact = f.delta_factorization
    chi = _chi_factors(fact, f.rank)
    if any(mult > 1 for _, mult in chi):
        return None
    polys = [poly for poly, _ in fact.factors]
    shift = 1 if fact.unit_exponent else 0  # chi: [x - 1], delta's factors, [x]
    pairs = [(0, len(chi) - 1)] if shift else []
    for i, poly in enumerate(polys):
        j = polys.index(_reciprocal_normalized(poly))
        if j == i:
            return []
        if i < j:
            pairs.append((i + shift, j + shift))
    n, t = f.rank, f.isometric_structure
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(max(g.max_exponent for g, _ in chi)):
        powers.append([[sum(map(mul, row, col)) for col in zip(*t)] for row in powers[-1]])
    kernels = []
    for g, _ in chi:
        coeffs = [g.coefficient(k) for k in range(g.max_exponent + 1)]
        kernels.append(_integer_kernel([[sum(map(mul, coeffs, entries)) for entries in zip(*rows)]
                                        for rows in zip(*powers)]))
    # pairs ascend by their first index, so product lists the choices in the
    # lexicographic order of their sorted indices
    return [_saturation(*_span_echelon([x for i in choice for x in kernels[i]]))
            for choice in product(*pairs)]


def _integer_kernel(m) -> tuple[tuple[int, ...], ...]:
    """Row HNF of the lattice ker(m) meet Z^n, for a k x n integer matrix m
    with k >= 1.  The rows of [m^T | I_n] span the pairs (m x, x) for x in
    Z^n, so the rows of their HNF whose first k entries vanish, with those
    entries dropped, are an HNF basis of the kernel; it is pure, as every
    kernel is (Cohen, A Course in Computational Algebraic Number Theory,
    section 2.4)."""
    k = len(m)
    hnf = _row_hnf(list(col) + [int(i == j) for j in range(len(m[0]))]
                   for i, col in enumerate(zip(*m)))
    return tuple(row[k:] for row in hnf if not any(row[:k]))


def _row_hnf(vectors) -> tuple[tuple[int, ...], ...]:
    """Row Hermite normal form of the lattice spanned by integer vectors,
    any generating set, dependent or not: echelon rows, positive pivots,
    entries above a pivot in [0, pivot), no zero rows."""
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
    Rows failing the first condition are never listed: the box is sieved by
    Q_A(v) = 0 and Q_A(Tv) = 0 before the cyclic span is taken
    (_cyclic_span: Q_A on v, Tv, ..., T^(r/2 - 1) v).  Each pivot
    configuration is walked depth first from its last row towards its
    first, carrying the exact reduced echelon form of E for the rows chosen
    so far, extended by one cyclic span at a time (_joint_span).  A row v is
    tried only when B(v, w) = 0 for each spanning vector w of E, which for
    the T-invariant E is A(v, E) = A(E, v) = 0 (module docstring), and then:

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
    b = f.intersection.rows  # eps B: zero where B is
    t = f.isometric_structure
    forms = _isotropy_forms(a, t)
    lists: dict = {}
    branches: dict = {}
    closures: dict = {}

    def grown(key, span):
        # the rows of key's list orthogonal to span, with their joint spans,
        # grouped by the pivot columns of the joint span
        if (key, span) not in branches:
            if key not in lists:
                lists[key] = _isotropic_rows(a, t, forms, bound, *key)
            checks = [[sum(map(mul, b_row, w)) for b_row in b] for w in span[1]]
            groups: dict = {}
            for row, krylov in lists[key]:
                if any(sum(map(mul, row, c)) for c in checks):  # B(row, w)
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


def _isotropy_forms(a, t):
    """S = M + M^T for M = A and M = T^T A T, so that v^T S v is 2 Q_A(v)
    and 2 Q_A(Tv): the first two checks of _cyclic_span, as quadratic forms
    in v."""
    at = [[sum(map(mul, row, col)) for col in zip(*t)] for row in a]
    tat = [[sum(map(mul, t_col, col)) for col in zip(*at)] for t_col in zip(*t)]
    return [[[x + y for x, y in zip(row, col)] for row, col in zip(p, zip(*p))]
            for p in (a, tat)]


def _isotropic_rows(a, t, forms, bound, pivot_cols, pivot_vals):
    """The rows with pivot pivot_vals[0] in column pivot_cols[0] whose
    cyclic span is A-isotropic, ascending, each with the vectors
    v, Tv, ..., T^(r/2 - 1) v of its span (_cyclic_span).

    `forms` (_isotropy_forms) holds S_i = M + M^T for M = A and for
    M = T^T A T, and Q_i(v) = v^T S_i v = 2 v^T M v, so a row is swept only
    when Q_A vanishes on v and on Tv.  The entries after the pivot lie in
    [-bound, bound], and in [0, p) above a later pivot p.  An odometer
    steps all but the last three of them, z, y and x, keeping the values of
    the forms and (S v)_j for the free columns j at O(r) a step.  Each Q_i
    is then a quadratic in z, y and x whose x^2 coefficient cc_i is S_i's
    diagonal entry in x's column, so

        P = cc_2 Q_1 - cc_1 Q_2 = M(z, y) x + N(z, y)

    has no x^2 term (when cc_1 = cc_2 = 0, P is Q_1, already linear in x).
    P and R vanish together exactly where Q_1 and Q_2 do, for R = Q_1, or
    R = Q_2 when P is a multiple of Q_1 (cc_1 = 0), and these two are the
    forms the odometer keeps.  z and y are swept; where M != 0 the one
    candidate x = -N / M is kept when the division is exact, x is in range
    and R vanishes there.  Only where M = N = 0 is P zero for every x, and
    the integer roots of R are listed (_integer_roots).  A kept row has
    Q_A(v) = Q_A(Tv) = 0, proved by the sieve, so its cyclic span
    (_cyclic_span) takes Q_A from T^2 v on.
    """
    r = len(a)
    jpiv = pivot_cols[0]
    later = dict(zip(pivot_cols[1:], pivot_vals[1:]))
    cols = list(range(jpiv + 1, r))
    lows = [0 if j in later else -bound for j in cols]
    highs = [later.get(j, bound + 1) for j in cols]
    v = [0] * r
    v[jpiv] = pivot_vals[0]
    a, t = _nonzeros(a), _nonzeros(t)
    n = len(cols)
    if n == 0:
        krylov = _cyclic_span(a, t, v)
        return [(tuple(v), krylov)] if krylov else []
    head = cols[:-3]
    for j, lo in zip(head, lows):
        v[j] = lo
    # z, y and x in columns b, d and c; with fewer free entries, z = 0 (and
    # y = 0) stand in the same column as the next
    ib, id_, ic = max(n - 3, 0), max(n - 2, 0), n - 1
    b, d, c = cols[ib], cols[id_], cols[ic]
    zs = range(lows[ib], highs[ib]) if n >= 3 else (0,)
    ys = range(lows[id_], highs[id_]) if n >= 2 else (0,)
    lo, hi = lows[ic], highs[ic]
    s1, s2 = forms
    cc1, cc2 = s1[c][c], s2[c][c]
    w1, w2 = (cc2, -cc1) if cc1 or cc2 else (1, 0)
    sp = [[w1 * x + w2 * y for x, y in zip(r1, r2)] for r1, r2 in zip(s1, s2)]
    pr = (sp, s1 if w2 else s2)
    # (S v)_j of P and R, concatenated, and the columns of S that a step in
    # each head column adds to it
    sv = [sum(map(mul, s[j], v)) for s in pr for j in cols]
    steps = [[s[e][j] for s in pr for j in cols] for e in head]
    qs = [sum(v[j] * sum(map(mul, s[j], v)) for j in range(jpiv, r)) for s in pr]
    # the quadratic parts of P and R in z, y, x: S_bb, 2 S_bd, 2 S_bc,
    # S_dd, 2 S_cd, S_cc, the last zero for P
    (pbb, pbd, pbc, pdd, pcd, _), (rbb, rbd, rbc, rdd, rcd, rcc) = [
        (s[b][b], 2 * s[b][d], 2 * s[b][c], s[d][d], 2 * s[c][d], s[c][c]) for s in pr]
    out = []
    while True:
        # S(v + z e_b + y e_d + x e_c) = S(v) + z (sb + z S_bb)
        #     + y (sd + 2 z S_bd + y S_dd) + x (sc + 2 z S_bc + 2 y S_cd + x S_cc)
        # for sj = 2 (S v)_j
        (p, rq), pb, pd, pc = qs, 2 * sv[ib], 2 * sv[id_], 2 * sv[ic]
        rb, rd, rc = 2 * sv[n + ib], 2 * sv[n + id_], 2 * sv[n + ic]
        for z in zs:
            # M = mz + y pcd and N = nz + y (nd + y pdd) at this z
            nz, nd, mz = p + z * (pb + z * pbb), pd + z * pbd, pc + z * pbc
            rz, rzd, rzc = rq + z * (rb + z * rbb), rd + z * rbd, rc + z * rbc
            for y in ys:
                m, m0 = mz + y * pcd, nz + y * (nd + y * pdd)
                if m:
                    if m0 % m:
                        continue
                    x = -m0 // m
                    if not lo <= x < hi or rz + y * (rzd + y * rdd) + x * (rzc + y * rcd + x * rcc):
                        continue
                    xs = (x,)
                elif m0:
                    continue
                else:
                    xs = _integer_roots(rcc, rzc + y * rcd, rz + y * (rzd + y * rdd), lo, hi)
                for x in xs:
                    row = v[:]
                    row[b], row[d], row[c] = z, y, x
                    krylov = _cyclic_span(a, t, row, known=2)
                    if krylov is not None:
                        out.append((tuple(row), krylov))
        k = len(head) - 1
        while k >= 0:
            e = head[k]
            delta = 1 if v[e] + 1 < highs[k] else lows[k] - v[e]
            if delta:
                v[e] += delta
                # S(v + delta e_e) = S(v) + 2 delta (S v)_e + delta^2 S_ee
                qs = [q + delta * (2 * sv[i * n + k] + delta * s[e][e])
                      for i, (q, s) in enumerate(zip(qs, pr))]
                sv = (list(map(add, sv, steps[k])) if delta == 1 else
                      [x + delta * y for x, y in zip(sv, steps[k])])
            if delta == 1:
                break
            k -= 1
        if k < 0:
            return out


def _nonzeros(m):
    """The rows of the integer matrix m as their (column, entry) pairs with
    a nonzero entry: products with them skip the zeros of m, half of it in
    a cobordance difference f (+) -g, which is block diagonal."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def _cyclic_span(a, t, row, known=0):
    """[v, Tv, ..., T^(r/2 - 1) v] for v = row when Q_A(w) = w^T A w
    vanishes on each of them, else None: that is exactly when the cyclic
    span of v is A-isotropic, for either sign (module docstring), and at
    rank 2 v is the only check.  An isotropic subspace has dimension at
    most r/2, so these powers span it whenever it has that dimension.
    A and T are given by their nonzero entries (_nonzeros); Q_A is taken
    only from T^known v on, the earlier powers being known isotropic
    (the sieve of _isotropic_rows proves it for v and Tv)."""
    half = len(a) // 2
    powers = [row]
    while True:
        w = powers[-1]
        if len(powers) > known and sum([x * sum([y * w[j] for j, y in a_row])
                                          for x, a_row in zip(w, a) if x]):
            return None
        if len(powers) == half:
            return powers
        powers.append([sum([y * w[j] for j, y in t_row]) for t_row in t])


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
    otherwise the lattice is the integer kernel of the integer kernel,
    which _integer_kernel already gives in HNF.  (The span is then short
    of rank n, so the inner kernel has a row.)"""
    if all(row[c] == 1 for row, c in zip(rows, cols)):
        return rows
    return _integer_kernel(_integer_kernel(rows))


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


def _square_at_minus_one(p: Laurent) -> bool:
    """Is |p(-1)| a perfect square?  Every +-t^k c^2 Q(t) Q(1/t) is +- a
    square at -1, so False refutes Fox-Milnor with no factoring."""
    return _isqrt_exact(abs(sum(c if e % 2 == 0 else -c
                                for e, c in p.coeffs.items()))) is not None


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
    Fox-Milnor factorization condition on delta = det(tA + eps A^T), read
    from the form's per-block factorization, or refuted with no factoring
    when |delta(-1)|, the product of the held block deltas at -1, is not a
    perfect square (every +-t^k c^2 Q(t) Q(1/t) is +- a square at -1); and
    a vanishing Arf invariant when eps = -1 (a cobordism invariant of
    odd-dimensional knots).  Each check carries a human-readable
    certificate, the same whichever way Fox-Milnor is refuted.  All-pass
    does not prove null-cobordance.  (The rank is even for every eps-form,
    so rank parity is no check.)
    """
    checks = []
    if f.eps == 1:
        sig = f.form_signature
        checks.append(Obstruction(
            name="signature", passed=sig == 0,
            certificate=f"signature of symmetrization = {sig}"))
    delta = f.alexander_raw
    fm = _square_at_minus_one(delta) and fox_milnor(f.delta_factorization)
    checks.append(Obstruction(
        name="fox-milnor", passed=fm,
        certificate=f"delta = {render_poly(delta.unit_normalize())}: "
                    f"{'factors as Q(t)Q(1/t)' if fm else 'does not factor as Q(t)Q(1/t)'}"))
    if f.eps == -1:
        checks.append(Obstruction(
            name="arf", passed=f.arf == 0,
            certificate=f"Arf invariant = {f.arf}"))
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
    difference = orthogonal_sum(f1, negate(f2))
    report = null_cobordance_obstructions(difference)
    if not report.all_pass:
        return CobordanceVerdict(status="not-cobordant",
                                 obstruction=report.first_failure())
    result = search_metaboliser(difference, bound)
    if result.found:
        return CobordanceVerdict(status="cobordant", witness=result.witness)
    return CobordanceVerdict(status="unknown-within-bound")
