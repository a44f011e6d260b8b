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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .cobordism import eps_form_of, null_cobordance_obstructions
from .exact import Matrix, det, kronecker
from .laurent import Laurent, NormalizationError, conway_normalize, is_product_of_cyclotomics
from .quadratic import karl, signature
from .seifert import (SeifertMatrix, alexander_polynomial, characteristic_polynomial,
                      intersection_form, is_fibered_form, monodromy)
from .spheres import BPClass, bp_class


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
    def link_dim(self) -> int:
        return 2 * self.middle_dimension - 1

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


@dataclass(frozen=True)
class GermReport:
    germ: BrieskornGerm
    seifert: SeifertMatrix
    rank: int
    fibered: bool
    monodromy: Matrix | None
    char_poly: Laurent | None
    quasi_unipotent: bool | None
    intersection: Matrix
    det_intersection: int
    unimodular: bool
    alexander_raw: Laurent
    alexander_conway: Laurent | None
    signature: int | None = None
    karl_value: int | None = None
    bp: BPClass | None = None
    slice_obstructions: tuple = ()
    anomalies: tuple[str, ...] = ()

    @property
    def spherical(self) -> bool:
        """Boundary has the homology of a sphere (knot rather than link)."""
        return self.unimodular


def germ_report(germ: BrieskornGerm) -> GermReport:
    """Full invariant pipeline for a Brieskorn-Pham germ.

    Fiberedness and quasi-unipotence of the monodromy are theorems for
    algebraic links, so their failure is reported as an anomaly (it would
    indicate a convention bug) rather than an error.
    """
    s = brieskorn_seifert(germ)
    anomalies = []
    fibered = is_fibered_form(s)
    if not fibered:
        anomalies.append("Seifert form of an algebraic link must be unimodular")
    h = monodromy(s) if fibered else None
    chi = characteristic_polynomial(h) if h is not None else None
    # the test is_quasi_unipotent(h) applies, on the chi already in hand
    qu = (chi.is_integral and is_product_of_cyclotomics(chi)) if chi is not None else None
    if qu is False:
        anomalies.append("monodromy of an algebraic link must be quasi-unipotent")
    inter = intersection_form(s)
    d_inter = det(inter)
    unimod = d_inter in (1, -1)
    raw = alexander_polynomial(s, "raw")
    try:
        conway = conway_normalize(raw)
    except NormalizationError:
        conway = None
    sig = karl_value = bp = None
    if unimod:
        if s.q % 2 == 0:
            sig = signature(inter)
            bp = bp_class(s)
        else:
            karl_value = karl(s)
            bp = bp_class(s)
    obstructions = ()
    if unimod:
        obstructions = tuple(null_cobordance_obstructions(eps_form_of(s)).checks)
    return GermReport(
        germ=germ,
        seifert=s,
        rank=s.rank,
        fibered=fibered,
        monodromy=h,
        char_poly=chi,
        quasi_unipotent=qu,
        intersection=inter,
        det_intersection=d_inter,
        unimodular=unimod,
        alexander_raw=raw,
        alexander_conway=conway,
        signature=sig,
        karl_value=karl_value,
        bp=bp,
        slice_obstructions=obstructions,
        anomalies=tuple(anomalies),
    )
