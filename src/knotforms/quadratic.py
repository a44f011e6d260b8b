"""Exact signatures, mod-2 quadratic refinements, Arf and KARL invariants.

The signature is computed with no floating point, by fraction-free
(Bareiss) elimination with symmetric pivots: the pivots are leading
principal minors of a form congruent to the input, and Jacobi's rule reads
the signature off their signs.  Quadratic forms over F_2 refine
nondegenerate alternating bilinear forms; their Arf invariant is
sum q(e_i) q(f_i) over any symplectic basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exact import Matrix, ShapeError
from .laurent import Laurent, conway_normalize
from .seifert import SeifertMatrix, alexander_polynomial, intersection_form


class DegenerateFormError(ValueError):
    """Bilinear form has a radical vector where nondegeneracy is required."""

    def __init__(self, msg, radical_vector=None):
        super().__init__(msg)
        self.radical_vector = radical_vector


class ParityError(ValueError):
    """Operation requires the other parity of the middle dimension q."""


def signature(m: Matrix) -> int:
    """Signature of a symmetric matrix, exactly.

    Bareiss elimination with diagonal pivots: after k steps the pivot D_k
    is a k x k leading principal minor of a form congruent to m, and with
    D_0 = 1 Jacobi's rule gives sigma = sum sign(D_k D_(k-1)).  When every
    remaining diagonal entry is 0 but some m_ij is not, row and column j
    are added to row and column i first; that congruence is unimodular, so
    the divisions stay exact, and it puts 2 m_ij on the diagonal.  A zero
    remainder is the radical and adds nothing.  A rational m is scaled by
    its (positive) common denominator first.
    """
    if not m.is_symmetric():
        raise ShapeError("signature is defined for symmetric matrices")
    denom = lcm(*(x.denominator for row in m.rows for x in row))
    # u[i] holds row i of the remaining block from its diagonal entry on
    u = [[int(x * denom) for x in row[i:]] for i, row in enumerate(m.rows)]
    sigma, prev = 0, 1
    while u:
        p = next((i for i, row in enumerate(u) if row[0]), None)
        if p is None:
            pair = next(((i, i + c) for i, row in enumerate(u) for c, x in enumerate(row) if x),
                        None)
            if pair is None:
                break
            i, j = pair
            col = [x + y for x, y in zip(_column(u, i), _column(u, j))]
            col[i] = 2 * u[i][j - i]
            p = i
        else:
            col = _column(u, p)
        piv = col.pop(p)
        sigma += 1 if (piv > 0) == (prev > 0) else -1
        rest = []
        for k, row in enumerate(u):
            if k < p:
                row = row[:p - k] + row[p - k + 1:]
            elif k == p:
                continue
            tail = col[len(rest):]
            f = tail[0]
            if f:
                rest.append([(piv * x - f * y) // prev for x, y in zip(row, tail)])
            elif piv == prev:
                rest.append(row)
            else:
                rest.append([piv * x // prev for x in row])
        u, prev = rest, piv
    return sigma


def _column(u: list[list[int]], j: int) -> list[int]:
    """Column j of the symmetric matrix whose upper triangle is u."""
    return [row[j - k] for k, row in enumerate(u[:j])] + u[j]


def is_even(m: Matrix) -> bool:
    """All diagonal entries even (the parallelisable-handlebody condition)."""
    if not m.is_symmetric():
        raise ShapeError("evenness is defined for symmetric matrices")
    return all(m.rows[i][i] % 2 == 0 for i in range(m.nrows))


def _f2(m: Matrix) -> list[list[int]]:
    return [[x % 2 for x in row] for row in m.rows]


@dataclass(frozen=True)
class QuadraticFormF2:
    """q: F_2^n -> F_2 with q(x+y) = q(x) + q(y) + b(x, y).

    `values` holds q on the standard basis vectors; `bilinear` is the Gram
    matrix of b mod 2, required symmetric with zero diagonal (alternating).
    """

    values: tuple[int, ...]
    bilinear: Matrix

    def __post_init__(self):
        n = len(self.values)
        if self.bilinear.shape != (n, n):
            raise ShapeError("bilinear matrix size must match value vector")
        b = _f2(self.bilinear)
        if any(b[i][i] for i in range(n)):
            raise ValueError("bilinear form must be alternating (zero diagonal mod 2)")
        if any(b[i][j] != b[j][i] for i in range(n) for j in range(n)):
            raise ValueError("bilinear form must be symmetric mod 2")
        object.__setattr__(self, "values", tuple(v % 2 for v in self.values))

    @property
    def dimension(self) -> int:
        return len(self.values)

    def __call__(self, x) -> int:
        n = self.dimension
        total = sum(self.values[i] for i in range(n) if x[i] % 2)
        b = self.bilinear.rows
        on = [i for i in range(n) if x[i] % 2]
        for a in range(len(on)):
            for c in range(a + 1, len(on)):
                total += b[on[a]][on[c]]
        return total % 2


def symplectic_basis_f2(b: Matrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Symplectic basis pairs (e_i, f_i) for a nondegenerate alternating
    form over F_2: b(e_i, f_j) = delta_ij, all other pairings zero.

    Greedy pairing, deterministic for a given matrix; a degenerate form
    raises DegenerateFormError carrying a radical vector.
    """
    if not b.is_square:
        raise ShapeError("symplectic reduction needs a square matrix")
    n = b.nrows
    rows = _f2(b)
    if any(rows[i][i] for i in range(n)):
        raise ValueError("form must be alternating (zero diagonal mod 2)")

    # vectors are int bitmasks, bit i holding coordinate i
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]

    def image(v):  # b v
        return sum(1 << i for i, m in enumerate(masks) if (m & v).bit_count() & 1)

    def coimage(v):  # v^T b
        out = 0
        for i, m in enumerate(masks):
            if v >> i & 1:
                out ^= m
        return out

    def vector(v):
        return tuple(v >> i & 1 for i in range(n))

    pairs = []
    remaining = [1 << i for i in range(n)]
    while remaining:
        e = remaining.pop(0)
        eb = coimage(e)
        partner = next((f for f in remaining if (eb & f).bit_count() & 1), None)
        if partner is None:
            raise DegenerateFormError(
                f"radical vector {vector(e)}: form is degenerate", radical_vector=vector(e))
        remaining.remove(partner)
        f = partner
        # peel e and f off every later vector
        bf, be = image(f), image(e)
        reduced = []
        for v in remaining:
            if (v & bf).bit_count() & 1:
                v ^= e
            if (v & be).bit_count() & 1:
                v ^= f
            if v:
                reduced.append(v)
        remaining = reduced
        pairs.append((vector(e), vector(f)))
    return pairs


def arf(q: QuadraticFormF2) -> int:
    """Arf invariant sum q(e_i) q(f_i) over a symplectic basis; the value
    is independent of the basis chosen."""
    pairs = symplectic_basis_f2(q.bilinear)
    return sum(q(e) * q(f) for e, f in pairs) % 2


def karl(s: SeifertMatrix) -> int:
    """Arf invariant of the Seifert quadratic form of an odd-q knot.

    Q(x) = A(x, x) mod 2, refined over the intersection form mod 2 (for odd
    q these agree with A + A^T mod 2).  Detects which homotopy sphere in
    the boundary-of-parallelisable family a (4k+1)-knot represents, and is
    a knot-cobordism invariant.  An intersection form that is degenerate
    mod 2 raises DegenerateFormError with a radical vector.
    """
    if s.q % 2 == 0:
        raise ParityError(f"KARL invariant needs odd q, got q={s.q}")
    inter = intersection_form(s)
    values = tuple(s.matrix.rows[i][i] % 2 for i in range(s.rank))
    form = QuadraticFormF2(values=values, bilinear=inter.entries_mod(2))
    if s.rank == 0:
        return 0
    return arf(form)


def levine_congruence(delta: Laurent, karl_value: int) -> bool:
    """Value at -1 of a Conway-normalized Alexander polynomial against
    1 + 4*KARL (mod 8).

    This congruence ties together the Alexander polynomial, Conway
    normalization and the KARL invariant; it must hold for every
    unimodular Seifert matrix with odd q and serves as a built-in
    cross-check.
    """
    return (delta(-1) - 1 - 4 * karl_value) % 8 == 0


def levine_congruence_check(s: SeifertMatrix) -> bool:
    """levine_congruence for the Seifert matrix s (odd q, unimodular)."""
    return levine_congruence(conway_normalize(alexander_polynomial(s)), karl(s))
