"""Algebraic knot cobordism: eps-forms, metabolisers, slice obstructions.

An eps-form is a square integer matrix A whose eps-symmetrization
A + eps*A^T is unimodular.  It is null-cobordant when A vanishes on a pure
half-rank sublattice (a metaboliser); two forms are cobordant when the
orthogonal difference is null-cobordant.  Metaboliser existence is searched
exhaustively over Hermite-normal-form bases with bounded entries, so a
negative search result is always reported as "not found within bound",
never as a proof of non-existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .exact import Matrix, ShapeError, det, smith_normal_form
from .laurent import Laurent, det_pencil, factor_int_poly, render_poly
from .quadratic import karl, signature
from .seifert import SeifertMatrix


class EpsFormError(ValueError):
    """Symmetrization is not unimodular (or the sign is invalid)."""


@dataclass(frozen=True)
class EpsForm:
    matrix: Matrix
    eps: int

    @property
    def rank(self) -> int:
        return self.matrix.nrows

    def symmetrization(self) -> Matrix:
        return self.matrix + self.matrix.transpose().scale(self.eps)

    def value(self, x, y):
        """A(x, y) for integer coordinate vectors."""
        return sum(xi * aij * yj
                   for xi, row in zip(x, self.matrix.rows)
                   for aij, yj in zip(row, y))


def validate_eps_form(matrix: Matrix, eps: int) -> EpsForm:
    """Construct an EpsForm, rejecting non-unimodular symmetrizations."""
    if eps not in (1, -1):
        raise EpsFormError(f"eps must be +1 or -1, got {eps}")
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    if not matrix.is_square:
        raise ShapeError(f"eps-form matrix must be square, got {matrix.shape}")
    d = det(matrix + matrix.transpose().scale(eps))
    if d not in (1, -1):
        raise EpsFormError(
            f"symmetrization has determinant {d}, not +-1: not an eps-form")
    return EpsForm(matrix=matrix, eps=eps)


def eps_form_of(s: SeifertMatrix) -> EpsForm:
    return validate_eps_form(s.matrix, s.epsilon)


def orthogonal_sum(f1: EpsForm, f2: EpsForm) -> EpsForm:
    if f1.eps != f2.eps:
        raise EpsFormError("orthogonal sum of forms with different eps")
    r1, r2 = f1.rank, f2.rank
    rows = []
    for i in range(r1):
        rows.append(list(f1.matrix.rows[i]) + [0] * r2)
    for i in range(r2):
        rows.append([0] * r1 + list(f2.matrix.rows[i]))
    return EpsForm(matrix=Matrix(rows, ncols=r1 + r2), eps=f1.eps)


def negate(f: EpsForm) -> EpsForm:
    return EpsForm(matrix=-f.matrix, eps=f.eps)


@dataclass(frozen=True)
class Metaboliser:
    """Basis (rows) of a pure half-rank sublattice on which the form vanishes."""

    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


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
    if f.rank % 2 != 0:
        return False
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
    status: str  # "found" | "not-found-within-bound" | "no-odd-rank"
    witness: Metaboliser | None = None
    bound: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


def search_metaboliser(f: EpsForm, bound: int) -> MetaboliserSearch:
    """Exhaustive bounded search for a metaboliser.

    Candidate sublattices are enumerated through their row-style Hermite
    normal form (pivot columns strictly increasing, pivots in 1..bound,
    entries above a pivot reduced modulo it, all entries in [-bound, bound]),
    so each sublattice appears exactly once and the enumeration order is
    deterministic: pivot-column sets, then pivot values, then the remaining
    entries, all lexicographically.  The first isotropic pure candidate in
    this order is returned.  "not-found-within-bound" is not a proof of
    non-existence.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    r = f.rank
    if r % 2 != 0:
        return MetaboliserSearch(status="no-odd-rank", bound=bound)
    half = r // 2
    if half == 0:
        return MetaboliserSearch(status="found", witness=Metaboliser(basis=()), bound=bound)
    for basis in _enumerate_hnf(f, r, half, bound):
        candidate = Metaboliser(basis=basis)
        if is_metaboliser(f, basis):
            return MetaboliserSearch(status="found", witness=candidate, bound=bound)
    return MetaboliserSearch(status="not-found-within-bound", bound=bound)


def _enumerate_hnf(f: EpsForm, r: int, half: int, bound: int):
    """Yield HNF candidate bases, pruned row by row.

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


def fox_milnor(delta: Laurent) -> bool:
    """Does delta factor as Q(t) * Q(1/t) up to a unit +-t^k?

    Checked on the irreducible factorization over Z[t]: after stripping the
    unit, the content must be a perfect square, every self-reciprocal
    irreducible factor must occur with even multiplicity, and the remaining
    factors must pair up exactly with their reciprocals.  Necessary for the
    Alexander polynomial of any null-cobordant knot.
    """
    if delta.is_zero:
        raise ValueError("Fox-Milnor condition is undefined for the zero polynomial")
    fact = factor_int_poly(delta)
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
    from math import isqrt
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

    Rank parity; vanishing signature of the symmetrization when eps = +1;
    the Fox-Milnor factorization condition on det(tA + eps A^T); and a
    vanishing Arf invariant when eps = -1 (a cobordism invariant of
    odd-dimensional knots).  Each check carries a human-readable
    certificate.  All-pass does not prove null-cobordance.
    """
    checks = []
    even = f.rank % 2 == 0
    checks.append(Obstruction(
        name="rank-parity", passed=even,
        certificate=f"rank {f.rank} is {'even' if even else 'odd'}"))
    if f.eps == 1:
        sig = signature(f.symmetrization())
        checks.append(Obstruction(
            name="signature", passed=sig == 0,
            certificate=f"signature of symmetrization = {sig}"))
    delta = det_pencil(f.matrix, f.matrix.transpose().scale(f.eps))
    fm = fox_milnor(delta)
    checks.append(Obstruction(
        name="fox-milnor", passed=fm,
        certificate=f"delta = {render_poly(delta.unit_normalize())}: "
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
    """Decide cobordance of f1 and f2 within the search bound.

    Runs the obstruction battery on f1 (+) -f2 first; a failed necessary
    condition settles the question negatively.  Otherwise the bounded
    metaboliser search either produces a witness (cobordant) or exhausts
    the bound (unknown).
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
