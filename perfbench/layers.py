"""In-process tracing of trajscope's public functions, from outside the package.

Nothing in `src/` knows about this module. `Tracer.install()` replaces each
traced function by a timing wrapper in every module namespace that holds it
(`from .x import f` copies the binding, so patching the defining module
alone would miss callers), and methods on their class. `restore()` puts the
originals back.

Two kinds of wrapper:

* spans, for calls at layer boundaries. Each keeps a stack frame
  so that its self time is its duration minus the time of the traced calls
  inside it;
* hot counters, for per-sample calls (MI push/estimate, kinematics, rho,
  array conversions). They add a call count and their duration to a group
  and charge that duration to the enclosing span as child time, without a
  stack frame. Hot functions must not call other traced functions.

So the self times of all span groups plus the totals of all hot groups add
up to the total time of the root spans (one per command).
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable

MODULES = (
    "trajscope", "trajscope.aim", "trajscope.analytics", "trajscope.cli",
    "trajscope.evaluation", "trajscope.ind", "trajscope.mi", "trajscope.preprocess",
    "trajscope.registry", "trajscope.sdd", "trajscope.store", "trajscope.types",
)

# (defining module, function name, span group)
SPANS = (
    ("trajscope.cli", "load_run_config", "cli.config"),
    ("trajscope.sdd", "parse_sdd_annotations", "sdd.parse"),
    ("trajscope.sdd", "assemble_trajectories", "sdd.assemble"),
    ("trajscope.ind", "parse_ind_tracks", "ind.parse"),
    ("trajscope.store", "write_store", "store.write"),
    ("trajscope.store", "load_store", "store.load"),
    ("trajscope.registry", "load_registry", "registry.load"),
    ("trajscope.analytics", "group_trajectories_for_stats", "analytics.group"),
    ("trajscope.analytics", "lost_stats", "analytics.lost_stats"),
    ("trajscope.analytics", "class_distribution", "analytics.class_distribution"),
    ("trajscope.analytics", "overlap_report", "analytics.overlap_report"),
    ("trajscope.preprocess", "preprocess_trajectory", "preprocess.trajectory"),
    ("trajscope.evaluation", "evaluate", "evaluation.evaluate"),
    ("trajscope.aim", "extract_interactions", "aim.extract"),
    ("trajscope.aim", "fit_normalizers", "aim.fit_normalizers"),
    ("trajscope.aim", "measure_interaction", "aim.measure"),
    ("trajscope.aim", "sweep", "aim.sweep"),
    ("trajscope.mi", "mi_prefix_series", "mi.prefix_series"),
    ("trajscope.types", "scene_diagonal", "types.scene_diagonal"),
)
HOT_FUNCTIONS = (
    ("trajscope.aim", "compute_kinematics", "aim.kinematics"),
    ("trajscope.aim", "compute_rho", "aim.rho"),
)
# (module, class, method, group)
HOT_METHODS = (
    ("trajscope.mi", "HashMIState", "push", "mi.push"),
    ("trajscope.mi", "HashMIState", "estimate", "mi.estimate"),
    ("trajscope.types", "Trajectory", "frames", "types.array_conversion"),
    ("trajscope.types", "Trajectory", "xy", "types.array_conversion"),
    ("trajscope.types", "Trajectory", "lost_flags", "types.array_conversion"),
)
COMMANDS = ("ingest", "stats", "aim", "eval")
SPAN_GROUPS = tuple(g for _, _, g in SPANS) + tuple(f"cli.{c}" for c in COMMANDS)
HOT_GROUPS = ("aim.kinematics", "aim.rho", "mi.push", "mi.estimate", "types.array_conversion")

# Which command time (printed per workload beside the result) and workload
# each layer should move, written down before anything is optimised. The
# longest matching name prefix applies; every command time adds to pipeline_s.
MOVES = {
    "sdd.": "ingest_s, ingest_rows_per_s, peak_rss_mib on sdd_bulk",
    "ind.": "ingest_s on ind_pair_sweep",
    "store.write": "ingest_s, ingest_rows_per_s, peak_rss_mib on sdd_bulk",
    "store.load": "stats_s, eval_s on sdd_bulk (store load is most of both)",
    "types.": "stats_s, eval_s on sdd_bulk; aim_s on ind_pair_sweep (pair extraction)",
    "types.scene_diagonal": "aim_s on sdd_aim_topk (sigma_d fit)",
    "preprocess.": "eval_s on sdd_bulk and ind_pair_sweep",
    "evaluation.": "eval_s on sdd_bulk and ind_pair_sweep",
    "analytics.": "stats_s on sdd_bulk and ind_pair_sweep",
    "registry.": "stats_s, eval_s on every workload that runs them",
    "aim.extract": "aim_s on ind_pair_sweep; barely on sdd_aim_topk",
    "aim.pairs": "aim_s on ind_pair_sweep; barely on sdd_aim_topk",
    "aim.": "aim_s on sdd_aim_topk; no change from fit work on ind_pair_sweep (fit bypassed)",
    "aim.sweep": "aim_s on ind_pair_sweep",
    "mi.": "aim_s on ind_pair_sweep and sdd_aim_topk; nothing on sdd_bulk",
    "cli.config": "every command time, every workload",
    "cli.ingest": "ingest_s", "cli.stats": "stats_s", "cli.aim": "aim_s", "cli.eval": "eval_s",
    "trace.": "nothing: tracing cost, to read the layer times against",
}
_COUNTS_HIGHER = ("sdd.rows", "ind.rows", "preprocess.windows", "evaluation.windows_scored",
                  "aim.pairs_measurable", "aim.extract_yield")
_COUNTS_LOWER = ("registry.warnings", "aim.pairs_considered", "store.load_calls", "store.write_bytes",
                 "types.array_conversions", "aim.kinematics_calls", "aim.rho_calls", "aim.measure_calls",
                 "mi.prefix_series_calls", "mi.push_calls", "mi.estimate_calls",
                 "aim.kinematics_per_pair_frame", "aim.measure_per_pair")


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    table: dict[str, tuple[str, str]] = {}
    for group in SPAN_GROUPS:
        table[f"{group}_s"] = ("s", "lower")
        table[f"{group}_self_s"] = ("s", "lower")
    for group in HOT_GROUPS:
        table[f"{group}_s"] = ("s", "lower")
    for name in _COUNTS_HIGHER:
        table[name] = ("ratio" if name.endswith("yield") else "count", "higher")
    for name in _COUNTS_LOWER:
        unit = "bytes" if name.endswith("bytes") else "ratio" if "_per_" in name else "count"
        table[name] = (unit, "lower")
    table["mi.estimate_us"] = ("us", "lower")
    table["trace.overhead_s"] = ("s", "lower")
    table["trace.overhead_ratio"] = ("ratio", "lower")
    return table


def moves(metric: str) -> str:
    return MOVES[max((p for p in MOVES if metric.startswith(p)), key=len)]


class GroupStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span and counter recorder; one instance per traced pipeline run."""

    def __init__(self) -> None:
        self.groups: dict[str, GroupStats] = defaultdict(GroupStats)
        self.counts: dict[str, float] = defaultdict(float)
        self.measured_pairs: set = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers -------------------------------------------------------------

    def span(self, group: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        stats = self.groups[group]
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def hot(self, group: str, fn: Callable) -> Callable:
        stats = self.groups[group]
        stack = self._stack

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed
                if stack:
                    stack[-1][0] += elapsed

        counted.__wrapped__ = fn
        return counted

    # --- result hooks (counts measured where the work happens) -------------------

    def _count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _on_extract(self, args, kwargs, pairs) -> None:
        n = len(args[0])
        self._count("aim.pairs_considered", n * (n - 1) // 2)
        self._count("aim.pairs_measurable", len(pairs) // 2)
        self._count("aim.directed_pair_frames", sum(len(p.frames) - p.n_window for p in pairs))

    def _on_measure(self, args, kwargs, series) -> None:
        pair = args[0]
        self.measured_pairs.add((pair.agent_i.source.key(), pair.key))

    def _hooks(self) -> dict[str, Callable]:
        count = self._count
        return {
            "sdd.parse": lambda a, k, r: count("sdd.rows", len(r)),
            "ind.parse": lambda a, k, r: count("ind.rows", sum(len(t) for t in r)),
            "preprocess.trajectory": lambda a, k, r: count("preprocess.windows", len(r)),
            "evaluation.evaluate": lambda a, k, r: count("evaluation.windows_scored", len(a[0])),
            "registry.load": lambda a, k, r: count("registry.warnings", len(r.warnings)),
            "aim.extract": self._on_extract,
            "aim.measure": self._on_measure,
        }

    # --- install / restore ---------------------------------------------------------

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for name in MODULES:
            module = importlib.import_module(name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        for module_name, attr, group in SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            self._replace_everywhere(original, self.span(group, original, hooks.get(group)))
        for module_name, attr, group in HOT_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            self._replace_everywhere(original, self.hot(group, original))
        for module_name, cls_name, attr, group in HOT_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.hot(group, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- results -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers for everything recorded so far (one pipeline run)."""
        g = self.groups
        c = self.counts
        out: dict[str, float] = {}
        for group in SPAN_GROUPS:
            out[f"{group}_s"] = g[group].total
            out[f"{group}_self_s"] = g[group].self_time
        for group in HOT_GROUPS:
            out[f"{group}_s"] = g[group].total
        for name in ("sdd.rows", "ind.rows", "preprocess.windows", "evaluation.windows_scored",
                     "registry.warnings", "aim.pairs_considered", "aim.pairs_measurable"):
            out[name] = c[name]
        out["store.write_bytes"] = c["store.write_bytes"]
        out["store.load_calls"] = g["store.load"].calls
        out["types.array_conversions"] = g["types.array_conversion"].calls
        out["aim.extract_yield"] = _ratio(c["aim.pairs_measurable"], c["aim.pairs_considered"])
        for name in ("aim.kinematics", "aim.rho", "aim.measure", "mi.prefix_series", "mi.push", "mi.estimate"):
            out[f"{name}_calls"] = g[name].calls
        out["aim.kinematics_per_pair_frame"] = _ratio(
            g["aim.kinematics"].calls, c["aim.directed_pair_frames"]
        )
        out["aim.measure_per_pair"] = _ratio(g["aim.measure"].calls, len(self.measured_pairs))
        out["mi.estimate_us"] = 1e6 * _ratio(g["mi.estimate"].total, g["mi.estimate"].calls)
        return out

    def root_total(self) -> float:
        return sum(self.groups[f"cli.{c}"].total for c in COMMANDS)

    def accounted(self) -> float:
        """Sum of span self times and hot totals; equals root_total()."""
        return sum(self.groups[g].self_time for g in SPAN_GROUPS + HOT_GROUPS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
