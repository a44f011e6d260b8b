"""Seifert-matrix calculus for odd-dimensional knots and fibered links.

A Seifert matrix is a square integer matrix A of linking numbers together
with the middle dimension q (the link lives in S^(2q+1)); eps = (-1)^q is
the symmetry sign.  Fixed sign conventions (matching Kauffman-Neumann
linking rules) give:

    intersection form   I = (-1)^q (A + (-1)^q A^T)
    monodromy           h = (-1)^(q+1) (A^T)^(-1) A      (det A != 0)
    Alexander pencil    P(t) = det(tA + (-1)^q A^T)

The 0 x 0 matrix is the unknot: every invariant is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

# det stays bound here: perfbench's tracer self-test checks that it wraps
# this module's binding of exact.det
from .exact import Matrix, ShapeError, SingularMatrixError, adjugate_product, det  # noqa: F401
from .laurent import (Laurent, det_pencil, elementary_divisors,
                      is_product_of_cyclotomics, pencil)


class NonFiberedError(ValueError):
    """Monodromy requested for a Seifert matrix with det A = 0."""


@dataclass(frozen=True)
class SeifertMatrix:
    matrix: Matrix
    q: int

    def __post_init__(self):
        if not isinstance(self.matrix, Matrix):
            object.__setattr__(self, "matrix", Matrix(self.matrix))
        if not self.matrix.is_square:
            raise ShapeError(f"Seifert matrix must be square, got {self.matrix.shape}")
        if not self.matrix.is_integral:
            raise TypeError("Seifert matrix entries must be integers")
        if self.q < 0:
            raise ValueError("middle dimension q must be >= 0")

    @property
    def rank(self) -> int:
        return self.matrix.nrows

    @property
    def epsilon(self) -> int:
        """(-1)^q: +1 for even q, -1 for odd q."""
        return -1 if self.q % 2 else 1


def intersection_form(s: SeifertMatrix) -> Matrix:
    """I = (-1)^q (A + (-1)^q A^T); symmetric for q even, antisymmetric odd."""
    a = s.matrix
    return (a + a.transpose().scale(s.epsilon)).scale(s.epsilon)


def monodromy(s: SeifertMatrix) -> Matrix:
    """h = (-1)^(q+1) (A^T)^(-1) A; integral whenever det A = +-1.

    Computed as -eps * Y / det A from the integer matrix
    Y = adj(A^T) A, which exact.adjugate_product reconstructs by CRT, so
    rational monodromies (det A != 0, +-1) come out exact as well.
    """
    a = s.matrix
    try:
        d, y = adjugate_product(a.transpose(), a)
    except SingularMatrixError:
        raise NonFiberedError("det A = 0: no open-book monodromy") from None
    return y.scale(-s.epsilon * d if d in (1, -1) else Fraction(-s.epsilon, d))


def alexander_polynomial(s: SeifertMatrix) -> Laurent:
    """det(tA + (-1)^q A^T), verbatim.

    laurent.conway_normalize rescales it by a unit +-t^k so that the result
    is symmetric under t <-> 1/t and equals 1 at t = 1; that exists exactly
    when the value at 1 is +-1 (guaranteed for unimodular Seifert matrices).
    """
    a = s.matrix
    return det_pencil(a, a.transpose().scale(s.epsilon))


def characteristic_polynomial(m: Matrix) -> Laurent:
    """det(tI - m), exact, monic of degree = size.

    A rational m is scaled by the common denominator D first: if
    det(sI - D m) = sum c_k s^k, the coefficient of t^k is c_k D^(k-n).
    """
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    denom = lcm(*(x.denominator for row in m.rows for x in row))
    chi = det_pencil(Matrix.identity(n), m.scale(-denom))
    if denom == 1:
        return chi
    return Laurent({k: Fraction(c, denom ** (n - k)) for k, c in chi.coeffs.items()})


def is_quasi_unipotent(h: Matrix) -> bool:
    """True iff every eigenvalue of h is a root of unity.

    Equivalent to the characteristic polynomial being a product of
    cyclotomic polynomials, which is decided exactly by degree-bounded
    cyclotomic matching.  A non-integral characteristic polynomial means
    some eigenvalue is not an algebraic integer, hence not a root of unity.
    """
    if not h.is_square:
        raise ShapeError("quasi-unipotence is defined for square matrices")
    if h.nrows == 0:
        return True
    chi = characteristic_polynomial(h)
    if not chi.is_integral:
        return False
    return is_product_of_cyclotomics(chi)


@dataclass(frozen=True)
class KnotModulePresentation:
    """Presentation tA + (-1)^q A^T of the middle knot module over Z[t,1/t]."""

    seifert: SeifertMatrix
    presentation: tuple = field(repr=False)
    divisors: tuple[Laurent, ...] = ()

    @property
    def is_torsion_over_qt(self) -> bool:
        """True iff the module is Q[t,1/t]-torsion (no zero divisors)."""
        return all(not d.is_zero for d in self.divisors)

    @property
    def free_rank_over_qt(self) -> int:
        return sum(1 for d in self.divisors if d.is_zero)


def knot_module(s: SeifertMatrix) -> KnotModulePresentation:
    """Elementary divisors over Q[t, 1/t] of the presentation tA + (-1)^q A^T."""
    rows = pencil(s.matrix, s.matrix.transpose().scale(s.epsilon))
    divisors = elementary_divisors(rows)
    return KnotModulePresentation(
        seifert=s,
        presentation=tuple(tuple(row) for row in rows),
        divisors=tuple(divisors),
    )

