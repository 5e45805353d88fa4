"""Spans around the package's public functions, and the layer metrics they give.

Child side, one traced CLI process::

    python perfbench/tracer.py SPANS_JSON PASS_ID CLI_ARGS...

imports the package, wraps the traced functions in every module that binds
them (``from .kernel import channel_overlap`` binds the name in ``overlaps``,
``risk`` and ``cli`` too), runs ``uncertain_ssl.cli.main(CLI_ARGS)`` and
writes the spans, kept in memory until then, to SPANS_JSON.  Nothing under
``src/`` changes.

Parent side, ``layer_metrics`` derives per-layer counts and self times from
the span files of one pass.  A span's self time is its duration minus the
durations of its direct children; calls nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "uncertain_ssl"

# Traced public functions by module; every public function of ``risk`` is
# traced as well.  A missing name stops the traced run.
TRACED = {
    "kernel": ("channel_overlap", "posterior_mean", "approx_error_grid"),
    "overlaps": ("solve_overlaps", "qv_from_qu"),
    "simulate": (
        "generate_dataset",
        "classify_oracle",
        "classify_supervised",
        "classify_semisupervised",
        "channel_overlap_mc_stats",
        "labeled_needed_empirical",
    ),
}


def _solve_attrs(args, result):
    return [int(result.iterations), int(result.converged)]


def _dataset_attrs(args, result):
    kappas = [float(block[1]) for block in args["labeling"]]
    return [
        int(args["p"]),
        int(args["n"]),
        float(args["lam"]),
        repr(args["seed"]),
        int(bool(kappas) and all(k == 1.0 for k in kappas)),
    ]


def _semisupervised_attrs(args, result):
    p, n = args["ds"].features.shape
    return [int(result.iterations), int(p), int(n)]


# Per-call attributes, computed after the span closes from the bound
# arguments and the result.
ATTRS = {
    "kernel.posterior_mean": lambda args, result: [int(getattr(result, "size", 1))],
    "kernel.approx_error_grid": lambda args, result: [int(result.size)],
    "overlaps.solve_overlaps": _solve_attrs,
    "overlaps.qv_from_qu": lambda args, result: [len(args["mixture"].atoms)],
    "simulate.generate_dataset": _dataset_attrs,
    "simulate.classify_semisupervised": _semisupervised_attrs,
    "simulate.channel_overlap_mc_stats": lambda args, result: [int(args["trials"])],
}


class Recorder:
    """Spans ``[name index, start, end, parent span, attrs]`` of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = [index, start, end, parent, None]
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[slot][4] = attrs(bound.arguments, result)
            return result

        return traced

    def dump(self, path: str, pass_id: int, quad_nodes: int) -> None:
        doc = {
            "pass": pass_id,
            "quad_nodes": quad_nodes,
            "names": self.names,
            "spans": self.spans,
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap the traced functions at every module of the package that binds them."""
    importlib.import_module(f"{PACKAGE}.cli")
    modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
    risk = sys.modules[f"{PACKAGE}.risk"]
    targets = dict(TRACED)
    targets["risk"] = tuple(n for n in risk.__all__ if inspect.isfunction(getattr(risk, n)))
    for module_name, names in targets.items():
        home = sys.modules[f"{PACKAGE}.{module_name}"]
        for fname in names:
            original = getattr(home, fname)
            traced = recorder.wrap(f"{module_name}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    mixture = sys.modules[f"{PACKAGE}.overlaps"].EpsilonMixture
    original = vars(mixture)["from_samples"].__func__
    mixture.from_samples = classmethod(recorder.wrap("overlaps.from_samples", original))


def main(argv: list[str]) -> int:
    spans_path, pass_id, cli_args = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules[f"{PACKAGE}.cli"]
    quad_nodes = len(sys.modules[f"{PACKAGE}.kernel"].DEFAULT_RULE)
    try:
        return recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        recorder.dump(spans_path, pass_id, quad_nodes)


# Layer metrics derived from spans.  Counts repeat exactly between traced
# runs at one seed; the ``_s`` metrics are self times in seconds.
SPAN_METRICS = (
    "kernel.channel_overlap.calls",
    "kernel.channel_overlap.self_s",
    "kernel.quad_points",
    "kernel.posterior_mean.calls",
    "kernel.posterior_mean.elements",
    "kernel.posterior_mean.self_s",
    "kernel.approx_error_grid.cells",
    "kernel.approx_error_grid.self_s",
    "overlaps.solve_overlaps.calls",
    "overlaps.solve_overlaps.iterations",
    "overlaps.solve_overlaps.overlap_calls",
    "overlaps.solve_overlaps.self_s",
    "overlaps.solve_overlaps.converged_ratio",
    "overlaps.qv_from_qu.calls",
    "overlaps.qv_from_qu.atoms",
    "overlaps.qv_from_qu.self_s",
    "overlaps.from_samples.calls",
    "overlaps.from_samples.self_s",
    "risk.calls",
    "risk.self_s",
    "simulate.generate_dataset.calls",
    "simulate.generate_dataset.distinct",
    "simulate.generate_dataset.useful_ratio",
    "simulate.generate_dataset.bytes",
    "simulate.generate_dataset.self_s",
    "simulate.reference_datasets",
    "simulate.classify_semisupervised.calls",
    "simulate.classify_semisupervised.passes",
    "simulate.classify_semisupervised.flops",
    "simulate.classify_semisupervised.self_s",
    "simulate.classify_oracle.self_s",
    "simulate.classify_supervised.self_s",
    "simulate.channel_overlap_mc_stats.trials",
    "simulate.channel_overlap_mc_stats.self_s",
    "simulate.labeled_needed_empirical.calls",
    "simulate.labeled_needed_empirical.self_s",
    "cli.main.self_s",
)


def layer_metrics(docs) -> dict[str, float]:
    """Per-layer metrics of one pass from the span documents of its processes."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    m: defaultdict = defaultdict(float)
    distinct = 0
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child_s = [0.0] * len(spans)
        under_solve = [False] * len(spans)
        datasets = set()
        for i, (name_index, start, end, parent, attrs) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                under_solve[i] = under_solve[parent] or names[spans[parent][0]] == "overlaps.solve_overlaps"
        for i, (name_index, start, end, parent, attrs) in enumerate(spans):
            name = names[name_index]
            calls[name] += 1
            self_s[name] += (end - start) - child_s[i]
            if name == "kernel.channel_overlap":
                m["kernel.quad_points"] += doc["quad_nodes"]
                m["overlaps.solve_overlaps.overlap_calls"] += under_solve[i]
            elif attrs is None:
                continue
            elif name == "kernel.posterior_mean":
                m["kernel.posterior_mean.elements"] += attrs[0]
            elif name == "kernel.approx_error_grid":
                m["kernel.approx_error_grid.cells"] += attrs[0]
            elif name == "overlaps.solve_overlaps":
                m["overlaps.solve_overlaps.iterations"] += attrs[0]
                m["overlaps.solve_overlaps.converged"] += attrs[1]
            elif name == "overlaps.qv_from_qu":
                m["overlaps.qv_from_qu.atoms"] += attrs[0]
            elif name == "simulate.generate_dataset":
                p, n, lam, seed, reference = attrs
                datasets.add((p, n, lam, seed))
                m["simulate.generate_dataset.bytes"] += 8 * p * n
                m["simulate.reference_datasets"] += reference
            elif name == "simulate.classify_semisupervised":
                passes, p, n = attrs
                m["simulate.classify_semisupervised.passes"] += passes
                m["simulate.classify_semisupervised.flops"] += 4 * p * n * passes
            elif name == "simulate.channel_overlap_mc_stats":
                m["simulate.channel_overlap_mc_stats.trials"] += attrs[0]
        # A dataset cache would live inside one process, so distinct
        # datasets are counted per process.
        distinct += len(datasets)

    for metric in SPAN_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = calls[span]
        elif kind == "self_s":
            m[metric] = self_s[span]
    risk = [name for name in calls if name.startswith("risk.")]
    m["risk.calls"] = sum(calls[name] for name in risk)
    m["risk.self_s"] = sum(self_s[name] for name in risk)
    solves = m["overlaps.solve_overlaps.calls"]
    m["overlaps.solve_overlaps.converged_ratio"] = m.pop("overlaps.solve_overlaps.converged", 0.0) / solves if solves else 0.0
    m["simulate.generate_dataset.distinct"] = distinct
    datasets = m["simulate.generate_dataset.calls"]
    m["simulate.generate_dataset.useful_ratio"] = distinct / datasets if datasets else 0.0
    return {name: m[name] for name in SPAN_METRICS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
