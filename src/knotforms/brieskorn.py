"""Seifert matrices of Brieskorn-Pham singularity links.

The germ z_0^(a_0) + ... + z_q^(a_q) has an algebraic link in S^(2q+1)
whose Seifert matrix is a signed iterated tensor product of one-variable
pieces: for a single variable z^a the matrix is the (a-1) x (a-1)
bidiagonal with 1 on the diagonal and -1 below it, and joining germs in
n+1 and m+1 variables multiplies the tensor product by (-1)^((n+1)(m+1))
(Sakamoto's formula).  The rank of the result is the Milnor number
prod(a_i - 1).

The one-variable matrix for a > 3 extrapolates the published a = 2, 3
data; it is pinned by the requirement that det(t*P + P^T) be
1 + t + ... + t^(a-1) up to a unit, and by the golden low-rank examples.

germ_report hands the matrix to the invariant pipeline (invariants.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .exact import Matrix, kronecker
from .invariants import Invariants
from .seifert import SeifertMatrix


@dataclass(frozen=True)
class BrieskornGerm:
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(a) for a in self.exponents))
        if not self.exponents:
            raise ValueError("a germ needs at least one exponent")
        if any(a < 2 for a in self.exponents):
            raise ValueError(f"all exponents must be >= 2, got {self.exponents}")

    @property
    def variables(self) -> int:
        return len(self.exponents)

    @property
    def middle_dimension(self) -> int:
        return len(self.exponents) - 1

    @property
    def milnor_number(self) -> int:
        return prod(a - 1 for a in self.exponents)

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.exponents) + ")"


def pham_matrix(a: int) -> Matrix:
    """One-variable Seifert matrix of z^a: diagonal 1, subdiagonal -1."""
    if a < 2:
        raise ValueError(f"exponent must be >= 2, got {a}")
    n = a - 1
    return Matrix([[1 if i == j else (-1 if i == j + 1 else 0)
                    for j in range(n)] for i in range(n)], ncols=n)


def sakamoto_product(af: Matrix, ag: Matrix, n: int, m: int) -> Matrix:
    """Seifert matrix of f(u) + g(v) from those of f and g:
    (-1)^((n+1)(m+1)) times the tensor product, where f has n+1 variables
    and g has m+1."""
    sign = -1 if ((n + 1) * (m + 1)) % 2 else 1
    return kronecker(af, ag).scale(sign)


def brieskorn_seifert(germ: BrieskornGerm) -> SeifertMatrix:
    """Left fold of the join formula over the exponents, in order.

    At each step the accumulated germ has `vars_so_far` variables and the
    new variable contributes its one-variable matrix (m = 0).  The matrix
    depends on the exponent order only up to congruence; the invariants do
    not.
    """
    a0, *rest = germ.exponents
    matrix = pham_matrix(a0)
    vars_so_far = 1
    for a in rest:
        matrix = sakamoto_product(matrix, pham_matrix(a), n=vars_so_far - 1, m=0)
        vars_so_far += 1
    return SeifertMatrix(matrix, q=germ.middle_dimension)


def quadratic_suspension_seifert(n: int) -> Matrix:
    """Seifert matrix of the sum of n+1 squares, by iterated join from (1).

    Comes out to (1) for n = 0, 3 (mod 4) and (-1) for n = 1, 2 (mod 4).
    """
    if n < 0:
        raise ValueError("need at least one variable")
    return brieskorn_seifert(BrieskornGerm((2,) * (n + 1))).matrix


class GermReport(Invariants):
    """The invariants of a germ's Seifert matrix, with the germ and the
    anomalies found."""

    def __init__(self, germ: BrieskornGerm):
        super().__init__(brieskorn_seifert(germ))
        self.germ = germ

    @cached_property
    def anomalies(self) -> tuple[str, ...]:
        """Fiberedness and quasi-unipotence of the monodromy are theorems
        for algebraic links, so their failure would indicate a convention
        bug; it is reported here rather than raised."""
        found = []
        if not self.fibered:
            found.append("Seifert form of an algebraic link must be unimodular")
        if self.quasi_unipotent is False:
            found.append("monodromy of an algebraic link must be quasi-unipotent")
        return tuple(found)


def germ_report(germ: BrieskornGerm) -> GermReport:
    """Invariant pipeline for a Brieskorn-Pham germ."""
    return GermReport(germ)
