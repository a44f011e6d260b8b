"""Per-layer timing from outside the library.

The tracer wraps the public functions named in WRAPPED.  knotforms binds
functions with ``from .x import f``, so one function object is reachable
from several module namespaces; install() replaces every module-level
binding of each wrapped object across ``knotforms.*`` (and the method on
its class for ``ReportDocument.render``), and uninstall() puts the
originals back.

Each call records a span (operation id, span id, parent span id, name,
start, end) in memory.  A function's self time is its span's duration minus
the time covered by its direct child spans; a recursive activation adds to
``calls`` and ``self_ms`` but only the outermost one adds to ``total_ms``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module under knotforms, attribute path) of every wrapped function
WRAPPED = (
    ("cli", "main"),
    ("matrixfile", "parse_matrix_file"),
    ("report", "ReportDocument.render"),
    ("brieskorn", "brieskorn_seifert"),
    ("brieskorn", "germ_report"),
    ("seifert", "monodromy"),
    ("seifert", "alexander_polynomial"),
    ("seifert", "characteristic_polynomial"),
    ("seifert", "is_quasi_unipotent"),
    ("seifert", "knot_module"),
    ("exact", "det"),
    ("exact", "inverse"),
    ("exact", "smith_normal_form"),
    ("exact", "kronecker"),
    ("laurent", "det_pencil"),
    ("laurent", "elementary_divisors"),
    ("laurent", "factor_int_poly"),
    ("laurent", "conway_normalize"),
    ("laurent", "is_product_of_cyclotomics"),
    ("quadratic", "signature"),
    ("quadratic", "karl"),
    ("quadratic", "levine_congruence_check"),
    ("cobordism", "null_cobordance_obstructions"),
    ("cobordism", "fox_milnor"),
    ("cobordism", "search_metaboliser"),
    ("cobordism", "algebraically_cobordant"),
    ("spheres", "bp_class"),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr in WRAPPED)

# Counters beyond calls and times, each fed by the call's arguments and
# result: name -> (wrapped function, kind).
EXTRA = {
    "laurent.det_pencil.max_rank": ("laurent.det_pencil", "max_rank"),
    "laurent.elementary_divisors.max_rank": ("laurent.elementary_divisors", "max_rank"),
    "cobordism.search_metaboliser.found_ratio": ("cobordism.search_metaboliser", "ratio"),
    "cobordism.null_cobordance_obstructions.refuted_ratio":
        ("cobordism.null_cobordance_obstructions", "ratio"),
}


def _rank(args) -> int:
    first = args[0]
    return first.nrows if hasattr(first, "nrows") else len(first)


def _hit(name, result) -> bool:
    if name == "cobordism.search_metaboliser":
        return result.found
    return not result.all_pass  # null_cobordance_obstructions refuted the pair


class Tracer:
    """Collects spans and per-function aggregates while installed."""

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self.calls = dict.fromkeys(NAMES, 0)
        self.total = dict.fromkeys(NAMES, 0.0)
        self.self_time = dict.fromkeys(NAMES, 0.0)
        self.max_rank = {"laurent.det_pencil": 0, "laurent.elementary_divisors": 0}
        self.hits = {"cobordism.search_metaboliser": 0,
                     "cobordism.null_cobordance_obstructions": 0}
        self._depth = dict.fromkeys(NAMES, 0)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_span = 0
        self._restore: list[tuple] = []

    def begin_operation(self, op_id: int) -> None:
        # an operation stopped by the budget can leave frames behind
        self._stack.clear()
        self._depth.update(dict.fromkeys(NAMES, 0))
        self.op_id = op_id

    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        clock = time.perf_counter
        tracks_rank = name in self.max_rank
        tracks_hits = name in self.hits

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if depth[name] == 0:
                    self.total[name] += elapsed
                if len(self.spans) < self.span_cap:
                    self.spans.append((self.op_id, span, parent, name, start, end))
                else:
                    self.dropped += 1
            if tracks_rank:
                self.max_rank[name] = max(self.max_rank[name], _rank(args))
            if tracks_hits and _hit(name, result):
                self.hits[name] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "knotforms" or key.startswith("knotforms."))]
        for (mod, attr), name in zip(WRAPPED, NAMES):
            home = sys.modules[f"knotforms.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass figures: calls and milliseconds divided by `passes`."""
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.total_ms"] = 1000 * self.total[name] / passes
            out[f"{name}.self_ms"] = 1000 * self.self_time[name] / passes
        for metric, (name, kind) in EXTRA.items():
            if kind == "max_rank":
                out[metric] = self.max_rank[name]
            else:
                out[metric] = self.hits[name] / self.calls[name] if self.calls[name] else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op_id, "span": span, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
