"""One invariant pipeline: every invariant of a Seifert matrix, each computed once.

`Invariants(s)` has one lazy, memoized stage per invariant, under one name;
a stage reads the earlier stages it needs instead of recomputing them.
Reports render an `Invariants` key by key, so a report computes only the
stages it shows.  A subclass that has a stage from a closed form or from
smaller pieces overrides it: `brieskorn.GermReport` for germs, and
`cobordism.EpsForm`, whose Alexander polynomial is a product over blocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exact import Matrix
from .laurent import Laurent, NormalizationError, conway_normalize, is_product_of_cyclotomics
from .quadratic import karl, levine_congruence, signature
from .seifert import (SeifertMatrix, alexander_polynomial, intersection_form, knot_module,
                      monodromy)
from .spheres import BPClass, bp_class


class Invariants:
    def __init__(self, seifert: SeifertMatrix):
        self.seifert = seifert

    @property
    def rank(self) -> int:
        return self.seifert.rank

    @cached_property
    def intersection(self) -> Matrix:
        return intersection_form(self.seifert)

    @cached_property
    def det_intersection(self) -> int:
        """det I = eps^n Delta(1), since I = eps (A + eps A^T)."""
        return self.seifert.epsilon ** self.rank * sum(self.alexander_raw.coeffs.values())

    @property
    def unimodular(self) -> bool:
        return self.det_intersection in (1, -1)

    @cached_property
    def det_a(self) -> int:
        """det A = eps^n Delta(0), the constant coefficient of alexander_raw."""
        return self.seifert.epsilon ** self.rank * self.alexander_raw.coefficient(0)

    @property
    def fibered(self) -> bool:
        return self.det_a in (1, -1)

    @cached_property
    def monodromy(self) -> Matrix | None:
        """The open-book monodromy; None unless the form is fibered."""
        return monodromy(self.seifert, self.det_a) if self.fibered else None

    @cached_property
    def alexander_raw(self) -> Laurent:
        return alexander_polynomial(self.seifert)

    @cached_property
    def _conway(self) -> tuple[Laurent | None, str | None]:
        try:
            return conway_normalize(self.alexander_raw), None
        except NormalizationError as exc:
            return None, str(exc)

    @property
    def alexander_conway(self) -> Laurent | None:
        """Conway form of alexander_raw; None when it has none, for the
        reason in conway_error."""
        return self._conway[0]

    @property
    def conway_error(self) -> str | None:
        return self._conway[1]

    @cached_property
    def char_poly(self) -> Laurent | None:
        """det(tI - h) for h = -eps (A^T)^-1 A; None when det A = 0.

        det(tI - h) = det(t A^T + eps A) / det A, whose numerator is the raw
        Alexander polynomial: exact for rational h too.
        """
        return self.alexander_raw.scale(Fraction(1, self.det_a)) if self.det_a else None

    @cached_property
    def quasi_unipotent(self) -> bool | None:
        """seifert.is_quasi_unipotent's test, on char_poly."""
        chi = self.char_poly
        return None if chi is None else chi.is_integral and is_product_of_cyclotomics(chi)

    @cached_property
    def knot_module(self) -> tuple[Laurent, ...]:
        """Elementary divisors of the knot module over Q[t, 1/t]."""
        return knot_module(self.seifert)

    @cached_property
    def form_signature(self) -> int | None:
        """Signature of the intersection form for even q (where it is
        symmetric); None for odd q."""
        return None if self.seifert.q % 2 else signature(self.intersection)

    @cached_property
    def arf(self) -> int | None:
        """KARL invariant for odd q, read off the Conway polynomial by
        Levine's congruence Delta(-1) = 1 + 4 Arf (mod 8); None for even q
        and when there is no Conway polynomial (I not unimodular).  Read by
        bp and by the cobordance battery."""
        if self.seifert.q % 2 == 0 or self.alexander_conway is None:
            return None
        return (self.alexander_conway(-1) - 1) // 4 % 2

    @cached_property
    def bp(self) -> BPClass | None:
        """Class of the boundary sphere; None unless the form is unimodular."""
        return bp_class(self) if self.unimodular else None

    @property
    def levine_congruence(self) -> bool | None:
        """Levine's congruence on a unimodular odd-q form, with the Arf
        invariant taken independently of Delta, by karl's symplectic
        reduction over F_2; None otherwise."""
        if self.arf is None:
            return None
        return levine_congruence(self.alexander_conway, karl(self.seifert))
