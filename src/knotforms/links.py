"""Handle-presentation data of a Seifert matrix, for the `handles` command.

A Seifert matrix of a handle presentation determines the attaching data:
pairwise linking numbers of the attaching link (equal to the off-diagonal
intersection numbers) and, depending on the parity of q, a framing
obstruction per handle.
"""

from __future__ import annotations

from dataclasses import dataclass

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
