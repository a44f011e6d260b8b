"""Command-line interface.

Subcommands:
    invariants  full invariant report for Seifert-matrix files (or stdin)
    brieskorn   invariant pipeline for an exponent tuple
    cobordant   algebraic-cobordance verdict for two matrix files
    groups      table of embeddable-sphere groups over a dimension range
    handles     handle-presentation data for Seifert-matrix files

Exit codes: 0 success (and "cobordant"); 1 not-cobordant; 2 usage, parse or
semantic error, or any other error inside a command; 3 cobordance unknown
within the search bound.  Output is byte-identical for identical inputs and
flags.  A command refuses its input by raising `Refusal` (or, for a
malformed matrix file, MatrixFileError), and `main` alone reports it: one
line "error: <message>" on stderr, nothing on stdout, exit 2.  Any other
exception inside a command reads "error: <Type>: <message>", also exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .brieskorn import BrieskornGerm, GermReport, germ_report
from .cobordism import algebraically_cobordant, eps_form_of
from .invariants import Invariants
from .links import handle_data
from .matrixfile import MatrixFileError, parse_matrix_file, serialize_matrix_file
from .report import ReportDocument, format_table
from .seifert import SeifertMatrix
from .spheres import embeddable_spheres_group, im_j_order

# `brieskorn` wall time on the germs (a, 3, 2, 2, 2), on a shared 2-vCPU VM
# with Python 3.11.7 (two runs, one at 500): mu = 116 0.8 s, 200 5.4-6.1 s,
# 256 12-14 s, 332 29-32 s, 500 141 s, about mu^3.7 past 332; det_pencil is
# nearly all of it, and the closed-form germ stages take 0.02 s at 332.
# The warning starts past 12 s, the refusal past about 12 min (extrapolated).
DEFAULT_RANK_WARN = 256
DEFAULT_RANK_LIMIT = 768
RANK_LIMIT_ENV = "KNOTFORMS_RANK_LIMIT"

# |bP^(n+1)| for n = 4k - 1 has 4281 digits at n = 3307 and 4308 at n = 3311,
# past Python's default limit of 4300 digits on int-to-str conversion.
GROUPS_MAX_CYCLIC_N = 3307


class Refusal(Exception):
    """Input a command refuses; main prints "error: <message>" and exits 2."""


def _past_digit_limit(n: int) -> Refusal:
    """|bP^(n+1)| for n = 3 (mod 4) past GROUPS_MAX_CYCLIC_N has too many
    digits to print."""
    return Refusal(f"|bP^(n+1)| at n = {n} has more than 4300 digits, the limit on "
                   f"integer string conversion; n = 3 (mod 4) must be <= {GROUPS_MAX_CYCLIC_N}")


def _check_bp_order(inv: Invariants) -> None:
    """Refuse a unimodular even-q form whose boundary group bP^(n+1),
    n = 2q - 1, is cyclic of unprintable order, before inv.bp computes it
    (the Bernoulli table behind it alone is quadratic in n)."""
    n = 2 * inv.seifert.q - 1
    if inv.seifert.q % 2 == 0 and n > GROUPS_MAX_CYCLIC_N and inv.unimodular:
        raise _past_digit_limit(n)


def _rank_limit() -> int:
    raw = os.environ.get(RANK_LIMIT_ENV)
    if raw is None:
        return DEFAULT_RANK_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise Refusal(f"{RANK_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise Refusal(exc) from None


def invariant_report(s: SeifertMatrix) -> ReportDocument:
    inv = Invariants(s)
    doc = ReportDocument()
    doc.add("q", s.q)
    doc.add("rank", s.rank)
    doc.add("seifert_matrix", s.matrix)
    if s.rank == 0:
        doc.add("unknot", "all invariants trivial")
    doc.add("intersection_form", inv.intersection)
    doc.add("det_intersection", inv.det_intersection)
    doc.add("unimodular", inv.unimodular)
    doc.add("fibered", inv.fibered)
    doc.add("monodromy", inv.monodromy)
    doc.add("alexander_raw", inv.alexander_raw)
    doc.add("alexander_conway", inv.alexander_conway
            if inv.alexander_conway is not None else f"<error: {inv.conway_error}>")
    doc.add("elementary_divisors", list(inv.knot_module))
    _check_bp_order(inv)
    cls = inv.bp
    if cls is None:
        doc.add("note", "intersection form not unimodular: boundary is not "
                        "a homotopy sphere; sphere-class invariants skipped")
        return doc
    if inv.form_signature is not None:
        doc.add("signature", inv.form_signature)
    else:
        doc.add("karl", inv.arf)
        doc.add("levine_congruence", inv.levine_congruence)
    doc.add("bp_group", cls.group.describe())
    if cls.sigma_over_8 is None:
        doc.add("bp_class", inv.arf)
    else:
        doc.add("bp_class", f"{cls.sigma_over_8} (residue {cls.class_residue} mod group order)")
    doc.add("exotic", cls.is_exotic)
    for note in cls.notes:
        doc.add("note", note)
    return doc


def brieskorn_report(rep: GermReport) -> ReportDocument:
    doc = ReportDocument()
    doc.add("germ", str(rep.germ))
    doc.add("q", rep.seifert.q)
    doc.add("milnor_number", rep.rank)
    doc.add("seifert_matrix", rep.seifert.matrix)
    doc.add("fibered", rep.fibered)
    doc.add("monodromy", rep.monodromy)
    doc.add("char_poly", rep.char_poly)
    doc.add("quasi_unipotent", rep.quasi_unipotent)
    doc.add("intersection_form", rep.intersection)
    doc.add("det_intersection", rep.det_intersection)
    doc.add("unimodular", rep.unimodular)
    doc.add("alexander_raw", rep.alexander_raw)
    doc.add("alexander_conway", rep.alexander_conway
            if rep.alexander_conway is not None
            else "<not normalizable: boundary is not a homotopy sphere>")
    _check_bp_order(rep)
    cls = rep.bp
    if cls is not None:
        if rep.form_signature is not None:
            doc.add("signature", rep.form_signature)
        else:
            doc.add("karl", rep.arf)
        doc.add("boundary_dim", cls.boundary_dim)
        doc.add("bp_group", cls.group.describe())
        doc.add("bp_class", cls.sigma_over_8 if cls.sigma_over_8 is not None else rep.arf)
        doc.add("exotic", cls.is_exotic)
        for note in cls.notes:
            doc.add("note", note)
    for anomaly in rep.anomalies:
        doc.add("anomaly", anomaly)
    return doc


def handles_report(s: SeifertMatrix) -> ReportDocument:
    data = handle_data(s)
    doc = ReportDocument()
    doc.add("q", s.q)
    doc.add("rank", data.rank)
    for (i, j), lk in sorted(data.linking.items()):
        doc.add(f"linking_{i + 1}_{j + 1}", lk)
    doc.add("framing_kind", data.framing_kind)
    if data.framings is not None:
        doc.add("framings", list(data.framings))
    return doc


def _render_file_report(path: str, report, mode: str) -> str:
    doc = report(parse_matrix_file(_read_input(path)))
    if path != "-":
        doc.items.insert(0, ("input", path))
    return doc.render(mode)


def _cmd_matrix_files(args) -> int:
    outputs = [_render_file_report(p, args.report, args.format) for p in args.paths]
    sys.stdout.write("\n".join(outputs))
    return 0


def _cmd_brieskorn(args) -> int:
    try:
        germ = BrieskornGerm(tuple(args.exponents))
    except ValueError as exc:
        raise Refusal(exc) from None
    limit = _rank_limit()
    mu = germ.milnor_number
    if mu > limit:
        raise Refusal(f"Milnor number {mu} exceeds the rank limit {limit} "
                      f"(override with {RANK_LIMIT_ENV})")
    if mu > DEFAULT_RANK_WARN:
        print(f"warning: Milnor number {mu} is large; this will be slow",
              file=sys.stderr)
    if args.emit_matrix and germ.middle_dimension < 1:
        raise Refusal("--emit-matrix needs at least two exponents: matrix files "
                      "require q >= 1, and this germ has q = 0")
    rep = germ_report(germ)
    report = brieskorn_report(rep).render(args.format)
    if args.emit_matrix:
        text = serialize_matrix_file(rep.seifert)
        if args.emit_matrix == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.emit_matrix, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise Refusal(exc) from None
    sys.stdout.write(report)
    return 0


def _cmd_cobordant(args) -> int:
    s1 = parse_matrix_file(_read_input(args.file_a))
    s2 = parse_matrix_file(_read_input(args.file_b))
    if s1.q % 2 != s2.q % 2:
        raise Refusal(f"parity mismatch: q={s1.q} vs q={s2.q}")
    try:
        f1, f2 = eps_form_of(s1), eps_form_of(s2)
    except ValueError as exc:
        raise Refusal(exc) from None
    verdict = algebraically_cobordant(f1, f2, bound=args.bound)
    doc = ReportDocument()
    doc.add("verdict", verdict.status)
    if verdict.witness is not None:
        doc.add("witness_basis", [list(v) for v in verdict.witness.basis])
    if verdict.obstruction is not None:
        doc.add("obstruction", verdict.obstruction.name)
        doc.add("certificate", verdict.obstruction.certificate)
    if verdict.status == "unknown-within-bound":
        doc.add("bound", args.bound)
        doc.add("note", "no metaboliser with basis entries within the bound; "
                        "existence beyond it is undecided")
    sys.stdout.write(doc.render(args.format))
    return {"cobordant": 0, "not-cobordant": 1, "unknown-within-bound": 3}[verdict.status]


def _group_row(n: int) -> list[str]:
    """One row of the groups table, from the one verdict for G^n."""
    verdict = embeddable_spheres_group(n)
    if verdict.kind == "trivial":
        cell = ("trivial (low dimension)" if n <= 4 else
                "trivial (even n)" if n % 2 == 0 else "trivial (exceptional)")
    else:
        cell = verdict.describe()
    order = {"trivial": "1", "cyclic": str(verdict.order), "Z/2": "2", "unknown": "?"}
    imj = str(im_j_order((n + 1) // 4)) if n % 4 == 3 else "-"
    return [str(n), cell, order[verdict.kind], imj, verdict.provenance]


def _cmd_groups(args) -> int:
    lo = args.n_min
    hi = args.n_max if args.n_max is not None else lo
    if lo < 1 or hi < lo:
        raise Refusal("need 1 <= N_MIN <= N_MAX")
    first = max(lo, GROUPS_MAX_CYCLIC_N + 1)
    first += (3 - first) % 4  # the first n = 3 (mod 4) past the limit
    if first <= hi:
        raise _past_digit_limit(first)
    headers = ["n", "G^n", "|bP^(n+1)|", "im_J(4k-1)", "provenance"]
    rows = [_group_row(n) for n in range(lo, hi + 1)]
    sys.stdout.write(format_table(headers, rows, args.format))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs far
    more than a parse, and callers may run main many times in-process."""
    parser = argparse.ArgumentParser(
        prog="knotforms",
        description="Exact invariants of odd-dimensional knots and links "
                    "from Seifert matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="output mode (default: text)")

    p_inv = sub.add_parser("invariants", help="invariant report for matrix files")
    p_inv.add_argument("paths", nargs="+", metavar="FILE",
                       help="matrix files; '-' reads stdin")
    add_format(p_inv)
    p_inv.set_defaults(run=_cmd_matrix_files, report=invariant_report)

    p_br = sub.add_parser("brieskorn", help="invariants of an exponent tuple")
    p_br.add_argument("exponents", nargs="+", type=int, metavar="A")
    p_br.add_argument("--emit-matrix", metavar="PATH",
                      help="also write the Seifert matrix as a matrix file")
    add_format(p_br)
    p_br.set_defaults(run=_cmd_brieskorn)

    p_cob = sub.add_parser("cobordant", help="algebraic cobordance of two files")
    p_cob.add_argument("file_a", metavar="FILE_A")
    p_cob.add_argument("file_b", metavar="FILE_B")
    p_cob.add_argument("--bound", type=int, default=2,
                       help="entry bound on witness bases (default 2); the "
                            "search is complete, and the bound only picks the "
                            "witness, when chi_T is squarefree; otherwise every "
                            "basis within the bound is searched, those that "
                            "cannot be T-invariant skipped")
    add_format(p_cob)
    p_cob.set_defaults(run=_cmd_cobordant)

    p_gr = sub.add_parser("groups", help="embeddable-sphere group table")
    p_gr.add_argument("n_min", type=int, metavar="N_MIN")
    p_gr.add_argument("n_max", type=int, nargs="?", default=None, metavar="N_MAX")
    add_format(p_gr)
    p_gr.set_defaults(run=_cmd_groups)

    p_h = sub.add_parser("handles", help="handle-presentation data for matrix files")
    p_h.add_argument("paths", nargs="+", metavar="FILE")
    add_format(p_h)
    p_h.set_defaults(run=_cmd_matrix_files, report=handles_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cobordant" and args.bound < 1:
        parser.error(f"argument --bound: must be >= 1, got {args.bound}")
    try:
        return args.run(args)
    except (Refusal, MatrixFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 would read as "not-cobordant"; interrupts and other
        # BaseExceptions still propagate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
