"""Per-layer spans recorded from outside the program.

A Tracer wraps the public functions of each dyadbloom module (and the few
private helpers whose results carry a count) and patches the wrapper into
every dyadbloom namespace that holds the function, including names imported
directly by a consumer module and module-level dispatch dicts.  Names a
module no longer has are skipped: they record zero calls.

Each call of a wrapped function is one span: name, group, start, end and
the span that was open when it started.  Spans stay in memory and are
written once, by write_jsonl, when the benchmark ends.

A group's time and call count cover its outermost spans only (spans with no
ancestor in the same group), so a wrapped function that calls another one of
its own group is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "dyadbloom"

SUITE_NAMES = (
    "identities",
    "equivalences",
    "paraproduct-bounds",
    "commutator-bounds",
    "carleson",
    "ppott",
    "stopping",
    "neccon-chain",
)

# (group, module, function names).  Groups name the per-layer metrics.
WRAPPED = (
    ("grid.transform", "grid",
     ("analyze_leaves", "synthesize_leaves", "haar_analyze", "haar_synthesize", "level_masses")),
    ("weights.generate", "weights", ("generate",)),
    ("weights.attempt", "weights", ("_generate_once",)),
    ("weights.a2", "weights", ("a2_characteristic",)),
    ("bmo.functional", "bmo",
     ("bloom_b2", "bloom_b2_dual", "bloom_b2_l2form", "bmo_rho", "bmo_rho_l1",
      "neccon_functional", "bmo_report")),
    ("operators.apply", "operators",
     ("paraproduct", "paraproduct_adjoint", "haar_shift", "commutator_shift",
      "expansion_terms", "remainder_closed_form")),
    ("normest.assemble", "normest",
     ("identity_matrix", "averaging_matrix", "expectation_matrix", "operator_matrix",
      "paraproduct_matrix", "paraproduct_adjoint_matrix", "shift_matrix",
      "commutator_matrix")),
    # Further dense builders: counted in normest.dense_bytes only.
    ("normest.dense", "grid", ("haar_matrix",)),
    ("normest.dense", "normest", ("_shift_image_matrix", "_weighted_matrix", "ppott_forms")),
    ("normest.norm", "normest", ("weighted_operator_norm",)),
    ("normest.power", "normest", ("power_iteration_norm",)),
    ("normest.eig", "normest", ("best_quadratic_constant",)),
    ("normest.necessity", "normest",
     ("necessity_restriction_ratios", "necessity_test_function_bound")),
    ("normest.carleson", "normest",
     ("carleson_constant", "carleson_embedding_check", "paraproduct_carleson_sequence",
      "adjoint_paraproduct_carleson_sequence")),
    ("stopping.search", "stopping", ("minimal_packing_constant", "minimal_corona_constant")),
    ("stopping.scan", "stopping", ("maximal_stopping_intervals",)),
    ("suites.run", "suites", ("run_suite",)),
    ("suites.make_trial", "suites", ("make_trial",)),
    ("cli.load", "serialize", ("load_step_function", "load_weight", "read_json")),
    ("cli.write", "serialize", ("write_json", "save_step_function")),
    ("cli.report", "normest", ("compute_norm_report",)),
)

# Span fields, kept as lists for speed.
NAME, GROUP, PARENT, OUTER, START, END, CHILD = range(7)


def _dense_bytes(result) -> int:
    """8 bytes per entry of every 2-D array the call returned (computed from
    shapes, not measured)."""
    items = result if isinstance(result, tuple) else (result,)
    total = 0
    for item in items:
        m = getattr(item, "matrix", item)
        shape = getattr(m, "shape", ())
        if len(shape) == 2:
            total += 8 * shape[0] * shape[1]
    return total


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.skipped = []
        for group, module_name, names in WRAPPED:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                self.skipped.extend(f"{module_name}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.skipped.append(f"{module_name}.{name}")
                    continue
                self._patch_everywhere(original, self._wrap(original, group, name))

    def uninstall(self) -> None:
        for holder, key, original, is_dict in reversed(self._patches):
            if is_dict:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches = []

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original, False))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._patches.append((value, key, original, True))

    def _wrap(self, fn, group: str, name: str):
        tracer = self
        if group == "suites.run":
            def span_name(args, kwargs):
                suite = args[0] if args else kwargs.get("name")
                return f"suites.{suite}"
        else:
            qualified = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"

            def span_name(args, kwargs):
                return qualified

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, group, span_name(args, kwargs), args, kwargs)

        return traced

    # ---------------------------------------------------------- recording

    def _call(self, fn, group, name, args, kwargs):
        spans = self.spans
        parent = self._stack[-1] if self._stack else -1
        span = [name, group, parent, self._depth[group] == 0, 0.0, 0.0, 0.0]
        if group == "stopping.scan" and self._depth["stopping.search"]:
            self.counts["scans_in_search"] += 1
        self._stack.append(len(spans))
        spans.append(span)
        self._depth[group] += 1
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            span[END] = end
            self._depth[group] -= 1
            self._stack.pop()
            if parent >= 0:
                spans[parent][CHILD] += end - span[START]
        if group in ("normest.assemble", "normest.dense"):
            self.counts["dense_bytes"] += _dense_bytes(result)
        elif group == "normest.power":
            self.counts["power_iterations"] += int(getattr(result, "iterations", 0))
        return result

    def reset(self) -> None:
        """Forget the spans and counts of the previous traced pass."""
        self.spans = []
        self.counts = Counter()

    # ---------------------------------------------------------- reduction

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        time_s: Counter = Counter()
        calls: Counter = Counter()
        by_name: Counter = Counter()
        suite_self = 0.0
        for span in self.spans:
            dur = span[END] - span[START]
            if span[OUTER]:
                time_s[span[GROUP]] += dur
                calls[span[GROUP]] += 1
            if span[GROUP] == "suites.run":
                by_name[span[NAME]] += dur
                suite_self += dur - span[CHILD]
        search_calls = calls["stopping.search"]
        m = {
            "grid.transform_s": time_s["grid.transform"],
            "grid.transform_calls": calls["grid.transform"],
            "weights.generate_s": time_s["weights.generate"],
            "weights.generate_calls": calls["weights.generate"],
            "weights.generate_attempts": calls["weights.attempt"],
            "weights.a2_s": time_s["weights.a2"],
            "bmo.functional_s": time_s["bmo.functional"],
            "bmo.functional_calls": calls["bmo.functional"],
            "operators.apply_s": time_s["operators.apply"],
            "operators.apply_calls": calls["operators.apply"],
            "normest.assemble_s": time_s["normest.assemble"],
            "normest.assemble_calls": calls["normest.assemble"],
            "normest.norm_s": time_s["normest.norm"],
            "normest.norm_calls": calls["normest.norm"],
            "normest.power_iterations": self.counts["power_iterations"],
            "normest.eig_s": time_s["normest.eig"],
            "normest.eig_calls": calls["normest.eig"],
            "normest.necessity_s": time_s["normest.necessity"],
            "normest.carleson_s": time_s["normest.carleson"],
            "normest.dense_bytes": self.counts["dense_bytes"],
            "stopping.search_s": time_s["stopping.search"],
            "stopping.search_calls": search_calls,
            "stopping.scan_calls": calls["stopping.scan"],
            "stopping.scans_per_search": (
                self.counts["scans_in_search"] / search_calls if search_calls else 0.0
            ),
            "suites.make_trial_s": time_s["suites.make_trial"],
            "suites.self_s": suite_self,
            "cli.load_s": time_s["cli.load"],
            "cli.write_s": time_s["cli.write"],
            "cli.report_s": time_s["cli.report"],
        }
        for suite in SUITE_NAMES:
            m[f"suites.{suite}_s"] = by_name[f"suites.{suite}"]
        return m


def write_jsonl(path, spans_by_pass: list[list[list]]) -> int:
    """Write the spans of every traced pass, one JSON object a line.

    parent is the index of the enclosing span within the same pass (-1 for
    none); self_s is the span's duration minus the time its child spans
    cover.  Returns the number of spans written.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, spans in enumerate(spans_by_pass):
            for i, s in enumerate(spans):
                fh.write(json.dumps({
                    "pass": pass_index,
                    "id": i,
                    "name": s[NAME],
                    "group": s[GROUP],
                    "parent": s[PARENT],
                    "start": s[START],
                    "end": s[END],
                    "self_s": s[END] - s[START] - s[CHILD],
                }) + "\n")
                n += 1
    return n
