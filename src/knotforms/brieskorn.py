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

germ_report hands the matrix to the invariant pipeline (invariants.py),
except for three stages read off the exponents in closed form: the
monodromy (by Sebastiani-Thom the Kronecker product of the one-variable
monodromies, up to the sign (-1)^(q+1)); its quasi-unipotence, from the
Milnor-Orlik divisor of its eigenvalues (Topology 9, 1970); and the even-q
signature, from Brieskorn's lattice-point count (Invent. Math. 2, 1966).
The Alexander polynomial stays on the pencil determinant, and the odd-q
Arf invariant is the pipeline's, read off its Conway form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .exact import Matrix, kronecker
from .invariants import Invariants
from .laurent import Laurent
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


def pham_monodromy(a: int) -> Matrix:
    """(P^T)^-1 P for P = pham_matrix(a): -1 below the diagonal and 1 in
    the last column (the inverse of P^T is the upper triangle of ones).
    The 1 x 1 matrix (1) for a = 2."""
    n = a - 1
    return Matrix([[1 if j == n - 1 else (-1 if i == j + 1 else 0)
                    for j in range(n)] for i in range(n)], ncols=n)


def _join(piece, exponents: tuple[int, ...]) -> Matrix:
    """Kronecker product of piece(a) over the exponents in order; a = 2
    pieces are (1) and drop out, and the empty product is (1)."""
    factors = [piece(a) for a in exponents if a != 2]
    return reduce(kronecker, factors) if factors else Matrix.identity(1)


def brieskorn_seifert(germ: BrieskornGerm) -> SeifertMatrix:
    """The join formula over the exponents, in order.  Sakamoto's binary
    join of germs in n+1 and m+1 variables is (-1)^((n+1)(m+1)) times the
    Kronecker product; folded over the exponents it joins a one-variable
    piece to k = 1 .. N-1 variables with sign (-1)^k, so the matrix is
    (-1)^(N(N-1)/2) times the Kronecker product of the pham_matrix(a).  It
    depends on the exponent order only up to congruence; the invariants do
    not."""
    n = germ.variables
    matrix = _join(pham_matrix, germ.exponents)
    return SeifertMatrix(-matrix if n * (n - 1) // 2 % 2 else matrix, q=germ.middle_dimension)


def milnor_orlik_divisor(exponents: tuple[int, ...]) -> dict[int, int]:
    """The divisor prod (L_a - L_1) over the exponents of the monodromy's
    eigenvalues, as {n: c_n} for sum c_n L_n, where L_n is the divisor of
    the n-th roots of unity and L_m L_n = gcd(m, n) L_lcm(m, n) (Milnor and
    Orlik).  A factor L_2 - L_1 = <-1> negates every eigenvalue."""
    divisor = {1: 1}
    for a in exponents:
        joined: dict[int, int] = {}
        for n, c in divisor.items():
            m = lcm(n, a)
            joined[m] = joined.get(m, 0) + gcd(n, a) * c
            joined[n] = joined.get(n, 0) - c
        divisor = {n: c for n, c in joined.items() if c}
    return divisor


def divisor_polynomial(divisor: dict[int, int]) -> Laurent:
    """prod (t^n - 1)^(c_n), the polynomial with the divisor sum c_n L_n
    (the divisor of a polynomial, such as milnor_orlik_divisor's): the
    factors with c_n > 0 are multiplied in first, then those with c_n < 0
    divided out, each division exact ((t^n - 1) g = p gives
    g_i = g_(i-n) - p_i)."""
    p = [1]
    for n, c in sorted(divisor.items(), key=lambda nc: -nc[1]):
        for _ in range(abs(c)):
            if c > 0:
                p = [(p[i - n] if i >= n else 0) - (p[i] if i < len(p) else 0)
                     for i in range(len(p) + n)]
            else:
                g: list[int] = []
                for i in range(len(p) - n):
                    g.append((g[i - n] if i >= n else 0) - p[i])
                p = g
    return Laurent.from_coeff_list(p)


def brieskorn_signature(exponents: tuple[int, ...]) -> int:
    """Signature of the intersection form, by Brieskorn's count over
    0 < j_i < a_i with s = sum j_i / a_i: the number of s in (0, 1) mod 2
    minus the number in (1, 2) mod 2 (an integral s spans the radical).
    In integers, s lcm(a) is taken mod 2 lcm(a)."""
    period = lcm(*exponents)
    steps = [period // a for a in exponents]
    sigma = 0
    for js in product(*(range(1, a) for a in exponents)):
        r = sum(map(mul, js, steps)) % (2 * period)
        if r % period:
            sigma += 1 if r < period else -1
    return sigma


class GermReport(Invariants):
    """The invariants of a germ's Seifert matrix, with the germ and the
    anomalies found.  The monodromy, its quasi-unipotence and the even-q
    signature come from the exponents; every other stage, the odd-q Arf
    invariant included, is the pipeline's."""

    def __init__(self, germ: BrieskornGerm):
        super().__init__(brieskorn_seifert(germ))
        self.germ = germ

    @cached_property
    def monodromy(self) -> Matrix | None:
        """h = (-1)^(q+1) (A^T)^-1 A, from the join (Sebastiani-Thom): A is
        +-_join(pham_matrix), and (X (x) Y)^T = X^T (x) Y^T and
        (X (x) Y)(Z (x) W) = XZ (x) YW make (A^T)^-1 A the same product of
        the pham_monodromy(a).  None unless the form is fibered."""
        if not self.fibered:
            return None
        h = _join(pham_monodromy, self.germ.exponents)
        return h if self.seifert.q % 2 else -h

    @cached_property
    def divisor_char_poly(self) -> Laurent:
        """det(tI - h) from the Milnor-Orlik divisor of the exponents."""
        return divisor_polynomial(milnor_orlik_divisor(self.germ.exponents))

    @cached_property
    def quasi_unipotent(self) -> bool | None:
        """True when char_poly is divisor_char_poly, a product of cyclotomic
        polynomials by construction; otherwise the general test, and
        anomalies reports the mismatch."""
        if self.char_poly == self.divisor_char_poly:
            return True
        return super().quasi_unipotent

    @cached_property
    def form_signature(self) -> int | None:
        """Brieskorn's count for even q; None for odd q."""
        return None if self.seifert.q % 2 else brieskorn_signature(self.germ.exponents)

    @cached_property
    def anomalies(self) -> tuple[str, ...]:
        """Fiberedness and quasi-unipotence of the monodromy are theorems
        for algebraic links, and the Milnor-Orlik divisor gives its
        characteristic polynomial, so their failure would indicate a
        convention bug in the join or the pencil; it is reported here
        rather than raised."""
        found = []
        if not self.fibered:
            found.append("Seifert form of an algebraic link must be unimodular")
        if self.char_poly != self.divisor_char_poly:
            found.append("characteristic polynomial differs from the Milnor-Orlik divisor")
        if self.quasi_unipotent is False:
            found.append("monodromy of an algebraic link must be quasi-unipotent")
        return tuple(found)


def germ_report(germ: BrieskornGerm) -> GermReport:
    """Invariant pipeline for a Brieskorn-Pham germ."""
    return GermReport(germ)
