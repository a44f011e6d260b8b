"""Handle-presentation data and the linking-matrix classification of
spherical links.

A Seifert matrix of a handle presentation determines the attaching data:
pairwise linking numbers of the attaching link (equal to the off-diagonal
intersection numbers) and, depending on the parity of q, a framing
obstruction per handle.  For links of spheres of dimension m >= 2 in
S^(2m+1), the matrix of pairwise linking numbers (with the appropriate
(-1)^(m+1)-symmetry and zero diagonal) is a complete isotopy invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Matrix, ShapeError
from .seifert import SeifertMatrix, intersection_form

PARALLELISABLE_Q = (1, 3, 7)  # middle dimensions with trivial framing group


@dataclass(frozen=True)
class HandlePresentation:
    rank: int
    q: int
    linking: dict[tuple[int, int], int]
    framings: tuple[int, ...] | None
    framing_kind: str  # "integer" | "mod2" | "none"


def handle_data(s: SeifertMatrix) -> HandlePresentation:
    """Attaching data of a handle presentation with Seifert matrix A.

    Linking numbers L(K_i, K_j) = (-1)^q (a_ij + (-1)^q a_ji) for i < j,
    read off the intersection form.  Framings: twice the diagonal when q
    is even (an Euler number, hence even); the diagonal mod 2 when q is odd
    outside 1, 3, 7; absent for q = 1, 3, 7 where the framing group
    vanishes.
    """
    a, inter = s.matrix, intersection_form(s).rows
    linking = {(i, j): inter[i][j] for i in range(s.rank) for j in range(i + 1, s.rank)}
    if s.q % 2 == 0:
        framings = tuple(2 * a.rows[i][i] for i in range(s.rank))
        kind = "integer"
    elif s.q in PARALLELISABLE_Q:
        framings = None
        kind = "none"
    else:
        framings = tuple(a.rows[i][i] % 2 for i in range(s.rank))
        kind = "mod2"
    return HandlePresentation(rank=s.rank, q=s.q, linking=linking,
                              framings=framings, framing_kind=kind)


class LinkingMatrixError(ValueError):
    """Candidate matrix fails the symmetry or zero-diagonal requirement."""


@dataclass(frozen=True)
class LinkingMatrix:
    """Pairwise linking numbers of a spherical link of m-spheres in S^(2m+1):
    (-1)^(m+1)-symmetric with zero diagonal."""

    matrix: Matrix
    m: int

    @property
    def components(self) -> int:
        return self.matrix.nrows

    @property
    def symmetry_sign(self) -> int:
        return -1 if self.m % 2 == 0 else 1


def validate_linking_matrix(matrix: Matrix, m: int) -> LinkingMatrix:
    if not isinstance(matrix, Matrix):
        matrix = Matrix(matrix)
    if not matrix.is_square:
        raise ShapeError(f"linking matrix must be square, got {matrix.shape}")
    if m < 1:
        raise ValueError(f"link dimension m must be >= 1, got {m}")
    sign = -1 if m % 2 == 0 else 1
    for i in range(matrix.nrows):
        if matrix.rows[i][i] != 0:
            raise LinkingMatrixError(
                f"nonzero diagonal entry {matrix.rows[i][i]} at ({i}, {i})")
    for i in range(matrix.nrows):
        for j in range(i + 1, matrix.ncols):
            if matrix.rows[j][i] != sign * matrix.rows[i][j]:
                raise LinkingMatrixError(
                    f"entry ({j}, {i}) breaks the required "
                    f"{'anti' if sign == -1 else ''}symmetry for m = {m}")
    return LinkingMatrix(matrix=matrix, m=m)


@dataclass(frozen=True)
class IsotopyVerdict:
    isotopic: bool | None  # None: equality is only a necessary condition (m = 1)
    linking_equal: bool
    classification_valid: bool

    def describe(self) -> str:
        if self.classification_valid:
            return "isotopic" if self.isotopic else "not isotopic"
        return ("necessary condition passes (m = 1: no classification claim)"
                if self.linking_equal else "necessary condition fails")


def links_isotopic(m1: LinkingMatrix, m2: LinkingMatrix) -> IsotopyVerdict:
    """Compare two links through their linking matrices.

    For m >= 2 equality of linking matrices is equivalent to isotopy
    (labels and orientations fixed); for m = 1 it is only necessary, and
    the verdict says so rather than claiming a classification.
    """
    if m1.m != m2.m:
        raise ShapeError("links live in different dimensions")
    if m1.components != m2.components:
        raise ShapeError("links have different numbers of components")
    equal = m1.matrix == m2.matrix
    valid = m1.m >= 2
    return IsotopyVerdict(isotopic=equal if valid else None,
                          linking_equal=equal,
                          classification_valid=valid)
