#!/usr/bin/env python3
"""perfbench: the knotforms benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload germ-ladder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each workload is a fixed, seeded list of CLI operations driven through
``knotforms.cli.main(argv)`` closed-loop: one client, one operation at a
time, in this process.  The list is run in passes until ``--seconds`` is
used up (at least one pass).  Outputs are checked by the oracles in
verify.py after timing.  The last line of stdout is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``); see README.md for their definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import layers  # noqa: E402
import verify  # noqa: E402

WORKLOADS = ("germ-ladder", "matrix-files", "cobordance")

# Per-operation budget in seconds.  On cobordance it is the documented
# limit past which an operation counts as failed; elsewhere it only keeps a
# run inside its time limit and is far above any measured operation.
BUDGET_S = {"germ-ladder": 60.0, "matrix-files": 30.0, "cobordance": 0.75}

SETUP_REPEATS = 5

# The machine this runs on is shared, and its speed drifts by up to half
# over minutes.  Every reported time is therefore rescaled to a reference
# speed: a fixed pure-Python probe that never touches knotforms is timed
# around each pass and between operations, after each PROBE_EVERY_S of
# operation time, and an operation's time is divided by its speed factor:
# the median of the probes taken within PROBE_WINDOW_S of it (at least the
# two around it), over PROBE_REF_S.  An overrun keeps its raw time, because
# the budget that stopped it is wall-clock time.
PROBE_REF_S = 0.020
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
_PROBE_MATRIX = [[(i * 7 + j * 3 + i * j) % 11 - 5 for j in range(14)] for i in range(14)]
TAIL_BEYOND = 10  # latency_tail_ms: highest percentile with this many beyond

# Layer calls the layer-to-metric table predicts per workload: functions
# that must run at least once, and functions that must not run at all.
PREDICTED = {
    "germ-ladder": {
        "called": ("cli.main", "report.ReportDocument.render", "brieskorn.germ_report",
                   "brieskorn.brieskorn_seifert", "seifert.monodromy", "exact.det",
                   "exact.inverse", "laurent.det_pencil", "spheres.bp_class"),
        "zero": ("seifert.knot_module", "laurent.elementary_divisors",
                 "matrixfile.parse_matrix_file", "cobordism.search_metaboliser",
                 "cobordism.algebraically_cobordant"),
    },
    "matrix-files": {
        "called": ("cli.main", "matrixfile.parse_matrix_file", "report.ReportDocument.render",
                   "seifert.knot_module", "laurent.elementary_divisors",
                   "laurent.det_pencil", "exact.inverse", "spheres.bp_class"),
        "zero": ("brieskorn.germ_report", "brieskorn.brieskorn_seifert",
                 "cobordism.null_cobordance_obstructions", "cobordism.search_metaboliser",
                 "laurent.factor_int_poly"),
    },
    "cobordance": {
        "called": ("cli.main", "matrixfile.parse_matrix_file",
                   "cobordism.algebraically_cobordant",
                   "cobordism.null_cobordance_obstructions", "cobordism.fox_milnor",
                   "laurent.factor_int_poly", "cobordism.search_metaboliser"),
        "zero": ("seifert.knot_module", "laurent.elementary_divisors",
                 "brieskorn.germ_report", "spheres.bp_class"),
    },
}

END_TO_END_UNITS = {
    "wall_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "success_ratio": "ratio", "decided_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside an operation that overran its budget.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded


def load_cli():
    """Import knotforms.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "knotforms" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'knotforms'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import knotforms.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "knotforms":
        raise SystemExit(f"error: imported knotforms from {cli.__file__}, not {SRC}")
    return cli


def build_ops(workload: str, seed: int) -> list[dict]:
    """The workload's operations, each with its argv; writes matrix files."""
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = []
    if workload == "germ-ladder":
        for spec in corpus.germ_ladder(seed):
            argv = ["brieskorn", *map(str, spec["exponents"]), "--format", "machine"]
            ops.append({"spec": spec, "argv": argv, "key": spec["name"]})
    elif workload == "matrix-files":
        for spec in corpus.matrix_files(seed):
            path = workdir / spec["name"]
            path.write_text(corpus.serialize(spec["matrix"], spec["q"]))
            ops.append({"spec": spec, "argv": ["invariants", "--format", "machine", str(path)],
                        "key": spec["name"]})
    else:
        for spec in corpus.cobordance_pairs(seed):
            paths = []
            for side in ("a", "b"):
                path = workdir / f"{spec['name']}{side}.mat"
                path.write_text(corpus.serialize(spec[side], spec["q"]))
                paths.append(str(path))
            argv = ["cobordant", *paths, "--bound", str(corpus.COBORDANCE_BOUND),
                    "--format", "machine"]
            ops.append({"spec": spec, "argv": argv, "key": spec["name"]})
    return ops


def setup(workload: str, seed: int) -> tuple[float, list[dict]]:
    """Median over SETUP_REPEATS of: a fresh interpreter importing the CLI,
    plus corpus generation and matrix-file writing; at the reference speed."""
    samples, probes = [], [probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); import knotforms.cli",
                        str(SRC)], check=True)
        ops = build_ops(workload, seed)
        end = time.perf_counter()
        probes.append(probe())
        samples.append((end - start) / speed_factor(probes, start, end))
    return statistics.median(samples), ops


def run_op(cli, argv: list[str], budget: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, status, detail = None, "done", ""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        status = "overrun"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a harness error
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return {"rc": rc, "out": out.getvalue(), "latency": latency,
            "status": status, "detail": detail}


def probe() -> tuple[float, float]:
    """Run a fixed kernel of the kinds of work knotforms does (Bareiss
    determinants, Fraction sums, dict updates); return the time at its
    middle and the seconds it took."""
    start = time.perf_counter()
    for _ in range(20):
        verify.det_int(_PROBE_MATRIX)
        sum(Fraction(1, k) for k in range(1, 120))
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
    seconds = time.perf_counter() - start
    return start + seconds / 2, seconds


def speed_factor(probes, start: float, end: float) -> float:
    """Speed factor for an interval, from a time-ordered list of probes
    that has at least one probe before `start` and one after `end`."""
    before = max(i for i, (at, _) in enumerate(probes) if at < start)
    near = [s for at, s in probes if start - PROBE_WINDOW_S <= at <= end + PROBE_WINDOW_S]
    return statistics.median(near + [probes[before][1], probes[before + 1][1]]) / PROBE_REF_S


def run_pass(cli, ops, budget: float, tracer=None) -> dict:
    """One pass over `ops`; each result gains `ref_latency`, its latency at
    the reference speed."""
    probes = [probe()]
    results = []
    since_probe = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_operation(i)
        start = time.perf_counter()
        res = run_op(cli, op["argv"], budget)
        res["start"] = start
        results.append(res)
        since_probe += res["latency"]
        if since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
    probes.append(probe())
    for res in results:
        factor = speed_factor(probes, res["start"], res["start"] + res["latency"])
        res["ref_latency"] = (res["latency"] if res["status"] == "overrun"
                              else res["latency"] / factor)
    return {"wall": sum(r["ref_latency"] for r in results),
            "raw_wall": sum(r["latency"] for r in results),
            "factor": statistics.median(s for _, s in probes) / PROBE_REF_S,
            "results": results}


def run_passes(cli, ops, budget: float, seconds: float, tracer=None) -> list[dict]:
    """Whole passes over `ops` until the next one would end past `seconds`."""
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass(cli, ops, budget, tracer))
        now = time.perf_counter()
        if (now - begin) + (now - start) > seconds:
            return passes


def judge(workload: str, ops, passes) -> dict:
    """Oracle verdicts for every result; identical outputs are checked once.

    `executions`, `overruns`, `incorrect` and `decided` count executions,
    every pass included; they feed the ratios.  `attempted` and `failed`
    count distinct operations: an operation fails if any of its executions
    raised, exited outside 0/1/2/3 or was rejected by its oracle.  An
    overrun is not a failure here, only in the ratios: whether an operation
    near the budget overruns depends on the machine's speed at that moment,
    while `failed` must be the same on every run of the same code and seed.
    """
    check = verify.CHECKS[workload]
    cache: dict = {}
    executions = overruns = incorrect = decided = 0
    failed_ops: set[int] = set()
    reasons: list[str] = []
    for p in passes:
        for i, (op, res) in enumerate(zip(ops, p["results"])):
            executions += 1
            if res["status"] == "overrun":
                overruns += 1
                continue
            if res["status"] == "raised":
                reason = res["detail"]
            elif res["rc"] not in (0, 1, 2, 3):
                reason = f"exit code {res['rc']}"
            else:
                key = (id(op), res["rc"], res["out"])
                if key not in cache:
                    try:
                        cache[key] = check(op["spec"], res["rc"], res["out"])
                    except Exception as exc:  # unparsable output is rejected output
                        cache[key] = f"unparsable output: {type(exc).__name__}: {exc}"
                reason = cache[key]
            if reason:
                incorrect += 1
                failed_ops.add(i)
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(op['argv'])}: {reason}")
                continue
            if workload != "cobordance" or res["rc"] in (0, 1):
                decided += 1
    return {"attempted": len(ops), "failed": len(failed_ops), "executions": executions,
            "overruns": overruns, "incorrect": incorrect, "decided": decided,
            "reasons": reasons}


def latency_figures(ops, passes) -> tuple[float, float, float, float, int]:
    """Figures over the median latency of each distinct operation (seconds):
    their sum, their p50, their tail, the tail's percentile, and their count."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for op, res in zip(ops, p["results"]):
            samples.setdefault(op["key"], []).append(res["ref_latency"])
    per_op = sorted(statistics.median(v) for v in samples.values())
    n = len(per_op)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return sum(per_op), statistics.median(per_op), per_op[idx], 100.0 * (idx + 1) / n, n


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s, ops = setup(workload, seed)
    budget = BUDGET_S[workload]
    if not trace:
        passes = run_passes(cli, ops, budget, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = judge(workload, ops, passes)
        wall, p50, tail, pct, distinct = latency_figures(ops, passes)
        executions = verdicts["executions"]
        metrics = {
            "wall_s": wall,
            "latency_p50_ms": 1000 * p50,
            "latency_tail_ms": 1000 * tail,
            "success_ratio": 1 - (verdicts["overruns"] + verdicts["incorrect"]) / executions,
            "decided_ratio": verdicts["decided"] / executions,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        notes = [f"latency_tail_ms is p{pct:.0f} of {distinct} per-operation medians",
                 f"passes={len(passes)} operations/pass={len(ops)}",
                 "raw wall s per pass: " + " ".join(f"{p['raw_wall']:.3f}" for p in passes),
                 "speed factor per pass: " + " ".join(f"{p['factor']:.3f}" for p in passes)]
        units = END_TO_END_UNITS
    else:
        plain = run_passes(cli, ops, budget, seconds / 2)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, ops, budget, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
        verdicts = judge(workload, ops, passes)
        metrics = tracer.metrics(len(traced))
        metrics["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                           / statistics.median(p["wall"] for p in plain))
        missing = [n for n in PREDICTED[workload]["called"] if tracer.calls[n] == 0]
        unexpected = [n for n in PREDICTED[workload]["zero"] if tracer.calls[n] != 0]
        metrics["trace.prediction_mismatches"] = len(missing) + len(unexpected)
        for name in missing:
            print(f"{workload}: predicted calls to {name}, saw none", file=sys.stderr)
        for name in unexpected:
            print(f"{workload}: predicted no calls to {name}, saw {tracer.calls[name]}",
                  file=sys.stderr)
        span_file = WORK / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(span_file)
        notes = [f"untraced passes={len(plain)} traced passes={len(traced)}",
                 f"spans kept={len(tracer.spans)} dropped={tracer.dropped} "
                 f"-> {span_file.relative_to(ROOT)}"]
        units = PER_LAYER_UNITS
    for reason in verdicts["reasons"]:
        print(f"{workload}: rejected: {reason}", file=sys.stderr)
    return {"workload": workload, "metrics": metrics, "units": units, "notes": notes,
            **{k: verdicts[k] for k in ("attempted", "failed", "executions", "overruns",
                                        "incorrect")}}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in layers.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    for metric in layers.EXTRA:
        units[metric] = "count" if metric.endswith("max_rank") else "ratio"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.prediction_mismatches"] = "count"
    return units


PER_LAYER_UNITS = _per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = load_cli()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(cli, w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    finally:
        signal.signal(signal.SIGALRM, previous)

    for res in results:
        print(f"== {res['workload']} seed={args.seed} trace={args.trace}: "
              f"operations={res['attempted']} failed={res['failed']}; "
              f"executions={res['executions']} (overruns={res['overruns']}, "
              f"incorrect={res['incorrect']})")
        for name, value in res["metrics"].items():
            print(f"  {name:<52} {value:14.6f} {res['units'][name]}")
        for note in res["notes"]:
            print(f"  # {note}")

    def entry(res, name):
        return {"value": res["metrics"][name], "unit": res["units"][name]}

    if len(results) == 1:
        metrics = {name: entry(results[0], name) for name in results[0]["metrics"]}
    else:
        metrics = {f"{res['workload']}.{name}": entry(res, name)
                   for res in results for name in res["metrics"]}
    print(json.dumps({
        "correct": all(res["incorrect"] == 0 for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
