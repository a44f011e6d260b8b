"""Compare the CLI output of this checkout with another tree on the
perfbench corpora.

    python3 tools/cli_diff.py --parent DIR --workload all|NAME --seed N --budget S [--bound B]

The operations of each workload are built from `perfbench/corpus.py` of this
checkout (imported, not changed) into a temporary directory, with the argv
lists the benchmark uses; `all` runs those three workloads.  `--bound`
sets the `cobordant` entry bound of the `cobordance` workload (default
`corpus.COBORDANCE_BOUND`, the benchmark's): bound 1 reaches the walk's
exhaustive unknown verdicts, bound 3 its deeper walks.  The
`germ-table` workload runs only when named: `brieskorn` on germs beyond the
benchmark's Milnor numbers (the Milnor rungs (6k-1, 3, 2, 2, 2) for
k = 1..10, the Kervaire rows (d, 2, 2, 2, 2, 2) for odd d = 33..63, and
(3, 5, 7), (2, 3, 7, 7), (2, 2, 2, 2, 3), (3, 3, 3), (3, 3, 3, 3),
(2, 3, 5, 7), (3, 3, 3, 3, 3), germs of both parities with several
exponents other than 2), and `invariants` on the
Seifert matrix file of each of those germs with Milnor number at most 68,
written by this checkout's `brieskorn --emit-matrix` while the operations
are built, so that the monodromy adjugate is compared at ranks past the
benchmark's; it ignores the seed.  The
`knot-modules` workload also runs only when named: `invariants` on seeded
Seifert matrices of rank 1-8 unlike any in the benchmark corpus, whose knot
modules reach the other branches of the Q[t] Smith form: random A (not
unimodular, so the divisors have rational coefficients), A whose row and
column j repeat row and column i (a zero divisor), and block sums B + B
(a non-cyclic module).  The `batches` workload runs only when named too:
every other argv names one file, so it compares multi-file output, with
one `invariants` and one `handles` argv over all the `matrix-files` files
of the seed and one `invariants` argv over the `knot-modules` files.
Each argv is run as `python -m knotforms.cli` in a subprocess, once
against this checkout's `src/` and once against DIR's `src/`, in that
temporary directory.  Exit code, stdout and stderr are compared after each tree's
root path is replaced by `<checkout>`.

An operation that runs past S seconds in either tree counts as overran, not
as a difference.  Prints the number of identical, differing and overrun
operations per workload (and each difference), and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402

WORKLOADS = ("germ-ladder", "matrix-files", "cobordance")
GERM_TABLE = ([(6 * k - 1, 3, 2, 2, 2) for k in range(1, 11)]
              + [(d, 2, 2, 2, 2, 2) for d in range(33, 64, 2)]
              + [(3, 5, 7), (2, 3, 7, 7), (2, 2, 2, 2, 3), (3, 3, 3), (3, 3, 3, 3),
                 (2, 3, 5, 7), (3, 3, 3, 3, 3)])
KNOT_MODULES_PER_KIND = 10


def knot_module_matrices(seed: int) -> list[tuple[str, list[list[int]], int]]:
    """(name, A, q) for the `knot-modules` workload, entries of A in -3..3."""
    rng = random.Random(f"knot-modules:{seed}")

    def draw(n):
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

    out = []
    for i in range(KNOT_MODULES_PER_KIND):
        a = draw(rng.randint(1, 8))
        out.append((f"rational{i}", a, rng.randint(1, 3)))
        a = draw(rng.randint(2, 8))
        src, dst = rng.sample(range(len(a)), 2)
        a[dst] = list(a[src])
        for row in a:
            row[dst] = row[src]
        out.append((f"repeated{i}", a, rng.randint(1, 3)))
        b = draw(rng.randint(1, 4))
        zeros = [0] * len(b)
        a = [row + zeros for row in b] + [zeros + row for row in b]
        out.append((f"blocksum{i}", a, rng.randint(1, 3)))
    return out


def build_ops(workload: str, seed: int, workdir: Path,
              bound: int = corpus.COBORDANCE_BOUND) -> list[tuple[str, list[str]]]:
    """(name, argv) for each operation of the workload, as perfbench runs
    them but with `cobordant --bound bound`; matrix files are written into
    workdir."""
    ops = []
    if workload == "germ-table":
        for exponents in GERM_TABLE:
            name = "-".join(["germ", *map(str, exponents)])
            ops.append((name, ["brieskorn", *map(str, exponents), "--format", "machine"]))
            if prod(a - 1 for a in exponents) <= 68:
                path = workdir / f"{name}.mat"
                emit_matrix(exponents, path)
                ops.append((f"{name}.mat", ["invariants", "--format", "machine", str(path)]))
    elif workload == "knot-modules":
        for name, matrix, q in knot_module_matrices(seed):
            path = workdir / f"{name}.mat"
            path.write_text(corpus.serialize(matrix, q))
            ops.append((name, ["invariants", "--format", "machine", str(path)]))
    elif workload == "batches":
        for command, source in (("invariants", "matrix-files"), ("handles", "matrix-files"),
                                ("invariants", "knot-modules")):
            paths = [argv[-1] for _, argv in build_ops(source, seed, workdir)]
            ops.append((f"{command}-{source}", [command, "--format", "machine", *paths]))
    elif workload == "germ-ladder":
        for spec in corpus.germ_ladder(seed):
            ops.append((spec["name"], ["brieskorn", *map(str, spec["exponents"]),
                                       "--format", "machine"]))
    elif workload == "matrix-files":
        for spec in corpus.matrix_files(seed):
            path = workdir / spec["name"]
            path.write_text(corpus.serialize(spec["matrix"], spec["q"]))
            ops.append((spec["name"], ["invariants", "--format", "machine", str(path)]))
    else:
        for spec in corpus.cobordance_pairs(seed):
            paths = []
            for side in ("a", "b"):
                path = workdir / f"{spec['name']}{side}.mat"
                path.write_text(corpus.serialize(spec[side], spec["q"]))
                paths.append(str(path))
            ops.append((spec["name"], ["cobordant", *paths, "--bound", str(bound),
                                       "--format", "machine"]))
    return ops


def emit_matrix(exponents: tuple[int, ...], path: Path) -> None:
    """Write the germ's Seifert matrix file with this checkout's CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "knotforms.cli", "brieskorn", *map(str, exponents),
                    "--emit-matrix", str(path)], env=env, stdout=subprocess.DEVNULL, check=True)


def run_cli(tree: Path, argv: list[str], cwd: Path, budget: float):
    """(exit code, stdout, stderr) with tree's path normalized, or None on
    an overrun."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "knotforms.cli", *argv], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return None
    root = str(tree)
    return (proc.returncode, proc.stdout.replace(root, "<checkout>"),
            proc.stderr.replace(root, "<checkout>"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the tree to compare against (holds src/knotforms)")
    parser.add_argument("--workload", default="all",
                        choices=("all",) + WORKLOADS + ("germ-table", "knot-modules", "batches"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bound", type=int, default=corpus.COBORDANCE_BOUND,
                        help="entry bound of `cobordant` in the cobordance workload")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="seconds per operation and tree before it counts as overran")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "knotforms" / "cli.py").is_file():
        parser.error(f"{parent} has no src/knotforms/cli.py")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            workdir = Path(tmp, workload)
            workdir.mkdir()
            counts = {"identical": 0, "differ": 0, "overran": 0}
            for name, op_argv in build_ops(workload, args.seed, workdir, args.bound):
                ours = run_cli(ROOT, op_argv, workdir, args.budget)
                theirs = run_cli(parent, op_argv, workdir, args.budget)
                if ours is None or theirs is None:
                    counts["overran"] += 1
                elif ours == theirs:
                    counts["identical"] += 1
                else:
                    counts["differ"] += 1
                    print(f"differ: {workload} {name}: exit {ours[0]} vs {theirs[0]}")
            differ += counts["differ"]
            bound = f" bound={args.bound}" if workload == "cobordance" else ""
            print(f"{workload} seed={args.seed}{bound}: " +
                  " ".join(f"{key}={value}" for key, value in counts.items()))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
