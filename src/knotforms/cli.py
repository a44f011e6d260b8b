"""Command-line interface.

Subcommands:
    invariants  full invariant report for Seifert-matrix files (or stdin)
    brieskorn   invariant pipeline for an exponent tuple
    cobordant   algebraic-cobordance verdict for two matrix files
    groups      table of embeddable-sphere groups over a dimension range
    handles     handle-presentation data for Seifert-matrix files

Exit codes: 0 success (and "cobordant"); 1 not-cobordant; 2 usage, parse or
semantic error, or any other error inside a command; 3 cobordance unknown
within the search bound.  Output is
byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .brieskorn import BrieskornGerm, GermReport, germ_report
from .cobordism import algebraically_cobordant, eps_form_of
from .invariants import Invariants
from .matrixfile import MatrixFileError, parse_matrix_file, serialize_matrix_file
from .report import ReportDocument, format_table
from .seifert import SeifertMatrix
from .spheres import embeddable_spheres_group, im_j_order

DEFAULT_RANK_WARN = 4096
DEFAULT_RANK_LIMIT = 65536
RANK_LIMIT_ENV = "KNOTFORMS_RANK_LIMIT"


def _rank_limit() -> int:
    raw = os.environ.get(RANK_LIMIT_ENV)
    if raw is None:
        return DEFAULT_RANK_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{RANK_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
    doc.add("elementary_divisors", list(inv.knot_module.divisors))
    cls = inv.bp
    if cls is None:
        doc.add("note", "intersection form not unimodular: boundary is not "
                        "a homotopy sphere; sphere-class invariants skipped")
        return doc
    if inv.signature is not None:
        doc.add("signature", inv.signature)
    else:
        doc.add("karl", inv.karl_value)
        doc.add("levine_congruence", inv.levine_congruence)
    doc.add("bp_group", cls.group.describe())
    if cls.sigma_over_8 is None:
        doc.add("bp_class", inv.karl_value)
    elif cls.class_residue is None:
        doc.add("bp_class", str(cls.sigma_over_8))
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
    cls = rep.bp
    if cls is not None:
        if rep.signature is not None:
            doc.add("signature", rep.signature)
        else:
            doc.add("karl", rep.karl_value)
        doc.add("boundary_dim", cls.boundary_dim)
        doc.add("bp_group", cls.group.describe())
        doc.add("bp_class", cls.sigma_over_8 if cls.sigma_over_8 is not None
                else rep.karl_value)
        doc.add("exotic", cls.is_exotic)
        for note in cls.notes:
            doc.add("note", note)
    for anomaly in rep.anomalies:
        doc.add("anomaly", anomaly)
    return doc


def handles_report(s: SeifertMatrix) -> ReportDocument:
    from .links import handle_data
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


def _render_file_report(path: str, kind: str, mode: str) -> str:
    s = parse_matrix_file(_read_input(path))
    doc = invariant_report(s) if kind == "invariants" else handles_report(s)
    if path != "-":
        doc.items.insert(0, ("input", path))
    return doc.render(mode)


def _cmd_matrix_files(args, kind: str) -> int:
    outputs: list[str] = []
    try:
        if args.jobs > 1 and len(args.paths) > 1 and "-" not in args.paths:
            # imported here: the process pool costs memory and import time
            # on every run, and only --jobs uses it; no more workers than
            # files, since a fork pool starts them all at the first submit
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(args.paths))) as pool:
                futures = [pool.submit(_render_file_report, p, kind, args.format)
                           for p in args.paths]
                outputs = [f.result() for f in futures]
        else:
            outputs = [_render_file_report(p, kind, args.format) for p in args.paths]
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("\n".join(outputs) if len(outputs) > 1 else outputs[0])
    return 0


def _cmd_brieskorn(args) -> int:
    try:
        germ = BrieskornGerm(tuple(args.exponents))
        limit = _rank_limit()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mu = germ.milnor_number
    if mu > limit:
        print(f"error: Milnor number {mu} exceeds the rank limit {limit} "
              f"(override with {RANK_LIMIT_ENV})", file=sys.stderr)
        return 2
    if mu > DEFAULT_RANK_WARN:
        print(f"warning: Milnor number {mu} is large; this will be slow",
              file=sys.stderr)
    if args.emit_matrix and germ.middle_dimension < 1:
        print("error: --emit-matrix needs at least two exponents: matrix files "
              "require q >= 1, and this germ has q = 0", file=sys.stderr)
        return 2
    rep = germ_report(germ)
    if args.emit_matrix:
        text = serialize_matrix_file(rep.seifert)
        if args.emit_matrix == "-":
            sys.stdout.write(text)
        else:
            try:
                with open(args.emit_matrix, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    sys.stdout.write(brieskorn_report(rep).render(args.format))
    return 0


def _cmd_cobordant(args) -> int:
    try:
        s1 = parse_matrix_file(_read_input(args.file_a))
        s2 = parse_matrix_file(_read_input(args.file_b))
    except (MatrixFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if s1.q % 2 != s2.q % 2:
        print(f"error: parity mismatch: q={s1.q} vs q={s2.q}", file=sys.stderr)
        return 2
    try:
        f1, f2 = eps_form_of(s1), eps_form_of(s2)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        print("error: need 1 <= N_MIN <= N_MAX", file=sys.stderr)
        return 2
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
    p_inv.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for multiple files")
    add_format(p_inv)

    p_br = sub.add_parser("brieskorn", help="invariants of an exponent tuple")
    p_br.add_argument("exponents", nargs="+", type=int, metavar="A")
    p_br.add_argument("--emit-matrix", metavar="PATH",
                      help="also write the Seifert matrix as a matrix file")
    add_format(p_br)

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

    p_gr = sub.add_parser("groups", help="embeddable-sphere group table")
    p_gr.add_argument("n_min", type=int, metavar="N_MIN")
    p_gr.add_argument("n_max", type=int, nargs="?", default=None, metavar="N_MAX")
    add_format(p_gr)

    p_h = sub.add_parser("handles", help="handle-presentation data for matrix files")
    p_h.add_argument("paths", nargs="+", metavar="FILE")
    p_h.add_argument("--jobs", type=int, default=1)
    add_format(p_h)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "cobordant" and args.bound < 1:
        parser.error(f"argument --bound: must be >= 1, got {args.bound}")
    try:
        return _run(args)
    except Exception as exc:
        # exit 1 would read as "not-cobordant"; interrupts and other
        # BaseExceptions still propagate
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "invariants":
        return _cmd_matrix_files(args, "invariants")
    if args.command == "handles":
        return _cmd_matrix_files(args, "handles")
    if args.command == "brieskorn":
        return _cmd_brieskorn(args)
    if args.command == "cobordant":
        return _cmd_cobordant(args)
    if args.command == "groups":
        return _cmd_groups(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
