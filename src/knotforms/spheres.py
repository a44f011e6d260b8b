"""Closed-form orders of exotic-sphere groups and the class of a knot.

Everything here is exact arithmetic on Bernoulli numbers plus a small table
of exceptional dimensions.  For n >= 5 the homotopy n-spheres embeddable in
codimension two form a cyclic group (the boundary-of-parallelisable group
bP^{n+1}); its order is computed from the closed formulas below, and the
class of a concrete knot is read off its Seifert matrix: signature/8 when
q is even, the Arf-type KARL invariant when q is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exact import bernoulli
from .quadratic import is_even

if TYPE_CHECKING:
    from .invariants import Invariants


@dataclass(frozen=True)
class GroupVerdict:
    kind: str  # "trivial" | "cyclic" | "Z/2" | "unknown"
    order: int | None = None
    generator: str = ""
    provenance: str = ""

    def __post_init__(self):
        if self.kind == "cyclic" and (self.order is None or self.order < 1):
            raise ValueError("cyclic verdict needs an order >= 1")

    def describe(self) -> str:
        if self.kind == "cyclic":
            return f"Z/{self.order}"
        return self.kind


# Dimensions 4k+2 where the Kervaire-invariant obstruction kills the group;
# data rather than code so a post-publication resolution of dimension 126
# is a one-line change.
KERVAIRE_TRIVIAL_DIMENSIONS = {
    2: "Kervaire invariant one exists in dimension 2 (Pontrjagin)",
    6: "Kervaire invariant one exists in dimension 6 (Kervaire-Milnor)",
    14: "Kervaire invariant one exists in dimension 14 (Kervaire-Milnor)",
    30: "Kervaire invariant one exists in dimension 30 (Barratt)",
    62: "Kervaire invariant one exists in dimension 62 (Barratt-Jones-Mahowald)",
}
KERVAIRE_UNKNOWN_DIMENSIONS = {
    126: "dimension 126 open at time of writing (Hill-Hopkins-Ravenel leave it)",
}


def im_j_order(k: int) -> int:
    """Order of the image of the stable J-homomorphism in dimension 4k-1:
    the denominator of B_k / 4k in lowest terms."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (bernoulli(k) * Fraction(1, 4 * k)).denominator


def bp4k_order(k: int) -> int:
    """Order of the group of homotopy (4k-1)-spheres bounding parallelisable
    manifolds: 2^(2k-2) (2^(2k-1) - 1) numerator(4 B_k / k), for k >= 2."""
    if k < 2:
        raise ValueError(
            f"k must be >= 2 (the dimension-4 group is not covered), got {k}")
    num = (4 * bernoulli(k) * Fraction(1, k)).numerator
    return 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * num


def bp4k2_group(k: int) -> GroupVerdict:
    """The boundary-of-parallelisable group in dimension 4k+2: trivial in
    the exceptional Kervaire-invariant dimensions, Z/2 otherwise, with
    dimension 126 reported as unknown."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    dim = 4 * k + 2
    if dim in KERVAIRE_TRIVIAL_DIMENSIONS:
        return GroupVerdict(kind="trivial",
                            provenance=KERVAIRE_TRIVIAL_DIMENSIONS[dim])
    if dim in KERVAIRE_UNKNOWN_DIMENSIONS:
        return GroupVerdict(kind="unknown",
                            provenance=KERVAIRE_UNKNOWN_DIMENSIONS[dim])
    return GroupVerdict(kind="Z/2", order=2,
                        generator="boundary of the Kervaire plumbing",
                        provenance="Kervaire invariant vanishes in this dimension")


def embeddable_spheres_group(n: int) -> GroupVerdict:
    """Group of homotopy n-spheres that embed in S^(n+2).

    Trivial for n <= 4 and for even n; cyclic of order bp4k_order(k) for
    n = 4k-1 with k >= 2 (generated by the boundary of the E8 plumbing);
    for n = 4k+1 either trivial (exceptional dimensions), Z/2, or unknown
    at n = 125.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n <= 4:
        return GroupVerdict(kind="trivial", provenance="low dimension: every "
                            "homotopy sphere embeds standardly")
    if n % 2 == 0:
        return GroupVerdict(kind="trivial", provenance="even n: only the "
                            "standard sphere embeds in codimension two")
    if n % 4 == 3:
        k = (n + 1) // 4
        return GroupVerdict(kind="cyclic", order=bp4k_order(k),
                            generator="boundary of the E8 plumbing",
                            provenance="order 2^(2k-2)(2^(2k-1)-1)num(4B_k/k)")
    return bp4k2_group((n - 1) // 4)


@dataclass(frozen=True)
class BPClass:
    """Which embeddable homotopy sphere a knot's boundary is.  The invariant
    it is read off, the signature (even q) or the Arf invariant (odd q), is
    the pipeline's `form_signature` or `arf`."""

    boundary_dim: int
    group: GroupVerdict
    is_exotic: bool
    sigma_over_8: int | None = None   # even q
    class_residue: int | None = None  # even q: sigma_over_8 mod the group order
    notes: tuple[str, ...] = ()


class ConventionError(AssertionError):
    """Internal consistency violated; indicates a sign-convention bug."""


def bp_class(inv: Invariants) -> BPClass:
    """Class of the boundary sphere of a unimodular Seifert matrix, read off
    the determinant, intersection form, signature and Arf invariant its
    `Invariants` already hold.

    Even q: the intersection form is even and unimodular, so its signature
    is divisible by 8; signature/8 reduced modulo the group order is the
    class (class +1 = the E8-plumbing boundary in our sign convention).
    Odd q: the KARL invariant, with the caveat that when the ambient group
    is trivial it still records the Arf invariant of the Seifert
    hypersurface but no longer distinguishes spheres.
    """
    if not inv.unimodular:
        raise ValueError("boundary class is defined for unimodular Seifert matrices")
    s, inter = inv.seifert, inv.intersection
    n = 2 * s.q - 1
    notes = []
    if s.q < 2:
        notes.append("q < 2: no sphere-group interpretation")
    group = embeddable_spheres_group(max(n, 1))
    if s.q % 2 == 0:
        # n = 2q - 1 is 3 mod 4 (or below 5), so the group is cyclic or trivial
        sig = inv.form_signature
        if is_even(inter) and sig % 8 != 0:
            raise ConventionError(
                f"even unimodular form with signature {sig} not divisible by 8")
        sigma8 = sig // 8
        residue = sigma8 % group.order if group.kind == "cyclic" else 0
        if s.q == 2:
            notes.append("q = 2: boundary is only guaranteed a homology sphere")
        return BPClass(boundary_dim=n, group=group, is_exotic=residue != 0,
                       sigma_over_8=sigma8, class_residue=residue, notes=tuple(notes))
    if group.kind == "trivial":
        notes.append("group is trivial: the value records the Arf invariant "
                     "of the Seifert hypersurface, not an exotic sphere")
    if group.kind == "unknown":
        notes.append("group order unknown in this dimension")
    return BPClass(boundary_dim=n, group=group, is_exotic=group.kind == "Z/2" and inv.arf == 1,
                   notes=tuple(notes))
