"""Output oracles for the perfbench workloads.

Each check takes the operation (as built by corpus.py), the exit code and
the captured stdout of one CLI call and returns None when the output is
accepted or a one-line reason when it is rejected.  The checks never import
knotforms: they parse the machine-format report and recompute what they
need with plain integer code or sympy.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

_TERM = re.compile(r"^(\d+(?:/\d+)?)?(t(?:\^(-?\d+))?)?$")


def parse_report(text: str) -> list[tuple[str, str]]:
    items = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        items.append((key, value))
    return items


def parse_poly(text: str) -> dict[int, Fraction]:
    """Parse the report rendering of a Laurent polynomial ("t^-1 - 1 + 2t")."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    signs = [-1 if tokens[0].startswith("-") else 1]
    terms = [tokens[0].lstrip("-")]
    if len(tokens) % 2 == 0:
        raise ValueError(f"malformed polynomial {text!r}")
    for op, term in zip(tokens[1::2], tokens[2::2]):
        if op not in ("+", "-"):
            raise ValueError(f"malformed polynomial {text!r}")
        signs.append(1 if op == "+" else -1)
        terms.append(term)
    poly: dict[int, Fraction] = {}
    for sign, term in zip(signs, terms):
        m = _TERM.match(term)
        if not m or not term:
            raise ValueError(f"malformed term {term!r} in {text!r}")
        coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        if m.group(2):
            exp = int(m.group(3)) if m.group(3) else 1
        else:
            exp = 0
            if not m.group(1):
                raise ValueError(f"malformed term {term!r} in {text!r}")
        if exp in poly:
            raise ValueError(f"repeated exponent in {text!r}")
        poly[exp] = sign * coeff
    return poly


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def unit_class(p: dict) -> tuple:
    """Representative of p modulo units c * t^k of Q[t, 1/t]."""
    if not p:
        return ()
    lo, hi = min(p), max(p)
    lead = Fraction(p[hi])
    return tuple(Fraction(p.get(e, 0)) / lead for e in range(lo, hi + 1))


def signed_class(p: dict) -> tuple:
    """Representative of p modulo units +-t^k of Z[t, 1/t]."""
    if not p:
        return ()
    lo, hi = min(p), max(p)
    sign = 1 if p[hi] > 0 else -1
    return tuple(sign * Fraction(p.get(e, 0)) for e in range(lo, hi + 1))


def det_int(rows: list[list[int]]) -> int:
    """Fraction-free elimination on a copy of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


# -- germ-ladder --------------------------------------------------------------

def expected_germ_alexander(exponents) -> dict:
    """prod_n Phi_n^(m_n), where the monodromy eigenvalues are
    exp(2 pi i sum j_i / a_i) over 0 < j_i < a_i (Brieskorn, Pham) and
    m_n counts those of exact order n, divided by phi(n)."""
    import sympy

    t = sympy.Symbol("t")
    orders: dict[int, int] = {}
    for js in product(*(range(1, a) for a in exponents)):
        n = (sum(Fraction(j, a) for j, a in zip(js, exponents)) % 1).denominator
        orders[n] = orders.get(n, 0) + 1
    poly = sympy.Poly(1, t)
    for n, count in orders.items():
        mult, rest = divmod(count, sympy.totient(n))
        if rest:
            raise AssertionError(f"order-{n} eigenvalues do not form whole orbits")
        poly *= sympy.Poly(sympy.cyclotomic_poly(n, t), t) ** int(mult)
    coeffs = poly.all_coeffs()[::-1]
    return {e: Fraction(int(c)) for e, c in enumerate(coeffs) if c != 0}


def check_germ(op: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    items = parse_report(out)
    rep = dict(items)
    if any(k == "anomaly" for k, _ in items):
        return "report has an anomaly line"
    if rep.get("quasi_unipotent") != "yes":
        return f"quasi_unipotent={rep.get('quasi_unipotent')}"
    if op["family"] == "milnor":
        k = op["k"]
        if int(rep.get("bp_class", "x")) % 28 != k % 28:
            return f"bp_class={rep.get('bp_class')}, expected {k} mod 28"
    else:
        exotic = "yes" if op["d"] % 8 in (3, 5) else "no"
        if rep.get("exotic") != exotic:
            return f"exotic={rep.get('exotic')}, expected {exotic}"
    got = signed_class(parse_poly(rep["alexander_raw"]))
    if got != signed_class(expected_germ_alexander(op["exponents"])):
        return "alexander_raw is not the expected product of cyclotomics"
    return None


# -- matrix-files -------------------------------------------------------------

def _poly_list(text: str) -> list[dict]:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a list: {text!r}")
    body = text[1:-1].strip()
    return [parse_poly(x) for x in body.split(", ")] if body else []


def check_invariants(op: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    rep = dict(parse_report(out))
    if rep.get("unimodular") != "yes":
        return f"unimodular={rep.get('unimodular')} for a unimodular-by-construction matrix"
    if op["q"] % 2 and rep.get("levine_congruence") != "yes":
        return f"levine_congruence={rep.get('levine_congruence')}"
    divisors = _poly_list(rep["elementary_divisors"])
    prod_divisors = {0: Fraction(1)}
    for d in divisors:
        prod_divisors = poly_mul(prod_divisors, d)
    if unit_class(prod_divisors) != unit_class(parse_poly(rep["alexander_raw"])):
        return "product of elementary_divisors differs from alexander_raw"
    return None


# -- cobordance ---------------------------------------------------------------

def difference_form(op: dict) -> list[list[int]]:
    """A (+) -B, the form whose metabolisers witness cobordance."""
    a, b = op["a"], op["b"]
    r1, r2 = len(a), len(b)
    rows = [list(row) + [0] * r2 for row in a]
    rows += [[0] * r1 + [-x for x in row] for row in b]
    return rows


def bilinear(m, x, y) -> int:
    return sum(xi * mij * yj for xi, row in zip(x, m) for mij, yj in zip(row, y))


def witness_error(form: list[list[int]], basis: list[list[int]]) -> str | None:
    n = len(form)
    if len(basis) != n // 2 or any(len(v) != n for v in basis):
        return "witness does not have half rank"
    for x in basis:
        for y in basis:
            if bilinear(form, x, y) != 0:
                return "witness is not isotropic"
    g = 0
    for cols in combinations(range(n), len(basis)):
        g = gcd(g, det_int([[v[c] for c in cols] for v in basis]))
        if g == 1:
            return None
    return f"witness maximal minors have gcd {g}, not a pure sublattice"


def alexander_sympy(op: dict):
    """det(tA + eps A^T) * det(-tB - eps B^T), eps = (-1)^q, with sympy."""
    import sympy

    t = sympy.Symbol("t")
    eps = -1 if op["q"] % 2 else 1
    total = sympy.Integer(1)
    for m, sgn in ((op["a"], 1), (op["b"], -1)):
        mat = sympy.Matrix(m)
        total *= (sgn * (t * mat + eps * mat.T)).det(method="berkowitz")
    return sympy.Poly(sympy.expand(total), t)


def fox_milnor_holds(poly) -> bool:
    """Delta = Q(t) Q(1/t) up to +-t^k, read off sympy.factor_list."""
    import sympy

    t = poly.gens[0]
    content, factors = sympy.factor_list(poly.as_expr(), t)
    if isqrt(abs(int(content))) ** 2 != abs(int(content)):
        return False
    counts: dict = {}
    for f, mult in factors:
        fp = sympy.Poly(f, t)
        if fp.degree() == 1 and fp.TC() == 0:
            continue  # the unit t
        if fp.LC() < 0:
            fp = -fp
        counts[tuple(fp.all_coeffs())] = counts.get(tuple(fp.all_coeffs()), 0) + mult
    while counts:
        coeffs, mult = next(iter(counts.items()))
        mirror = tuple(coeffs[::-1])
        if mirror[0] < 0:
            mirror = tuple(-c for c in mirror)
        if mirror == coeffs:
            if mult % 2:
                return False
            del counts[coeffs]
        else:
            if counts.get(mirror, 0) != mult:
                return False
            del counts[coeffs], counts[mirror]
    return True


def signature_float(m: list[list[int]]) -> int:
    import numpy

    values = numpy.linalg.eigvalsh(numpy.array(m, dtype=float))
    return int(sum(1 for v in values if v > 0.5e-9) - sum(1 for v in values if v < -0.5e-9))


def arf_by_counting(m: list[list[int]]) -> int:
    """Arf invariant of x -> x^T M x mod 2 as its majority value (Brown)."""
    n = len(m)
    ones = sum(bilinear(m, x, x) % 2 for x in product((0, 1), repeat=n))
    return 1 if 2 * ones > 2 ** n else 0


def check_cobordance(op: dict, rc: int, out: str) -> str | None:
    if rc not in (0, 1, 3):
        return f"exit code {rc}"
    rep = dict(parse_report(out))
    verdict = rep.get("verdict")
    expected = {"cobordant": 0, "not-cobordant": 1, "unknown-within-bound": 3}
    if expected.get(verdict) != rc:
        return f"verdict {verdict!r} with exit code {rc}"
    if op["self_congruent"] and verdict == "not-cobordant":
        return "a form was refuted against a congruent copy of itself"
    form = difference_form(op)
    if verdict == "cobordant":
        return witness_error(form, ast.literal_eval(rep["witness_basis"]))
    if verdict == "not-cobordant":
        name = rep.get("obstruction")
        eps = -1 if op["q"] % 2 else 1
        if name == "fox-milnor":
            if fox_milnor_holds(alexander_sympy(op)):
                return "fox-milnor refutation, but the Alexander polynomial factors as Q(t)Q(1/t)"
        elif name == "signature":
            sym = [[form[i][j] + form[j][i] for j in range(len(form))] for i in range(len(form))]
            if eps != 1 or signature_float(sym) == 0:
                return "signature refutation, but the signature vanishes"
        elif name == "arf":
            if eps != -1 or arf_by_counting(form) == 0:
                return "arf refutation, but the Arf invariant vanishes"
        else:
            return f"unexpected obstruction {name!r}"
    return None


CHECKS = {
    "germ-ladder": check_germ,
    "matrix-files": check_invariants,
    "cobordance": check_cobordance,
}
