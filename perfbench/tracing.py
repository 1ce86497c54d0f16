"""Spans and counters recorded from outside the program.

The tracer replaces the module-level names neurotraj looks up at call time
(for example `neurotraj.experiment.evaluate`) with timing wrappers and keeps
every span in memory; the benchmark writes them to a JSON-lines file when
it ends. The layer of a span is the first component of its name: the
neurotraj module that implements the function.

Functions called hundreds of thousands of times per run (`dominates`,
`tchebycheff`) are not wrapped: the wrapper would cost more than the call.
Their call counts follow from input sizes and are counted at the callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "trajectory", "experiment", "evaluator", "objectives", "genome",
          "nsga2", "moead", "analysis")

# (module, attribute, span name). A function imported into several modules is
# wrapped in each module that calls it, under one span name.
TARGETS = (
    ("neurotraj.cli", "cmd_run", "cli.run"),
    ("neurotraj.cli", "cmd_analyze", "cli.analyze"),
    ("neurotraj.cli", "run_experiment", "experiment.run_experiment"),
    ("neurotraj.cli", "load_records", "experiment.load_records"),
    ("neurotraj.cli", "summarize", "experiment.summarize"),
    ("neurotraj.cli", "hypervolume", "analysis.hypervolume"),
    ("neurotraj.cli", "kde_density", "analysis.kde_density"),
    ("neurotraj.cli", "spearman", "analysis.spearman"),
    ("neurotraj.experiment", "build_dataset", "trajectory.build_dataset"),
    ("neurotraj.experiment", "execute_run", "experiment.execute_run"),
    ("neurotraj.experiment", "persist_experiment", "experiment.persist_experiment"),
    ("neurotraj.experiment", "summarize", "experiment.summarize"),
    ("neurotraj.experiment", "evaluate", "evaluator.evaluate"),
    ("neurotraj.experiment", "classify_validity", "analysis.classify_validity"),
    ("neurotraj.experiment", "permutation_test", "analysis.permutation_test"),
    ("neurotraj.experiment", "ranksum_test", "analysis.ranksum_test"),
    ("neurotraj.evaluator", "assemble", "objectives.assemble"),
    ("neurotraj.evaluator", "rmse", "objectives.rmse"),
    ("neurotraj.genome", "GeneticOperators.offspring", "genome.offspring"),
    ("neurotraj.nsga2", "init_population", "nsga2.init_population"),
    ("neurotraj.nsga2", "nsga2_step", "nsga2.step"),
    ("neurotraj.nsga2", "nondominated_sort", "nsga2.nondominated_sort"),
    ("neurotraj.nsga2", "crowding_distance", "nsga2.crowding_distance"),
    ("neurotraj.moead", "init_state", "moead.init_state"),
    ("neurotraj.moead", "moead_step", "moead.step"),
    ("neurotraj.moead", "archive_insert", "moead.archive_insert"),
)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Spans are [name, start_ns, end_ns, parent index, op id]."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[int, set] = defaultdict(set)  # execute_run span -> genomes
        self._archive: dict[int, int] = {}  # execute_run span -> archive size
        self._saved: list[tuple] = []

    def install(self) -> None:
        hooks = {
            "evaluator.evaluate": self._after_evaluate,
            "nsga2.nondominated_sort": self._after_sort,
            "moead.step": self._after_moead_step,
            "moead.archive_insert": self._after_archive_insert,
            "analysis.hypervolume": self._after_hypervolume,
            "analysis.spearman": self._after_spearman,
            "experiment.persist_experiment": self._after_persist,
            "experiment.load_records": self._after_load,
        }
        for module_name, attribute, name in TARGETS:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _enclosing_run(self) -> int | None:
        """Index of the innermost open execute_run span."""
        for index in reversed(self._stack):
            if self.spans[index][0] == "experiment.execute_run":
                return index
        return None

    # Counters measured where the work happens.
    def _after_evaluate(self, args, result):
        genome, data = args[0], args[1]
        self.counters["evaluator.windows"] += len(data.validation) + len(data.test)
        seen = self._seen[self._enclosing_run()]
        self.counters["evaluator.duplicates"] += genome.indices in seen
        seen.add(genome.indices)

    def _after_sort(self, args, result):
        n = len(args[0])
        self.counters["nsga2.dominance_pairs"] += n * (n - 1)

    def _after_moead_step(self, args, result):
        neighborhoods = args[2]
        # Two scalarizations (child and incumbent) per neighbour per subproblem.
        self.counters["moead.tchebycheff_calls"] += 2 * sum(len(nb) for nb in neighborhoods)
        self._archive[self._enclosing_run()] = len(result.archive)

    def _after_archive_insert(self, args, result):
        archive, candidate = args
        self.counters["moead.archive_accepted"] += any(m is candidate for m in archive)

    def _after_hypervolume(self, args, result):
        self.counters["analysis.hypervolume.points"] += len(args[0])

    def _after_spearman(self, args, result):
        self.counters["analysis.spearman.permutation_calls"] += len(args[0]) < 500

    def _after_persist(self, args, result):
        self.counters["experiment.bytes_written"] += sum(Path(p).stat().st_size for p in result)

    def _after_load(self, args, result):
        exp_dir, (cfg, _) = Path(args[0]), result
        names = ["config.json"] + [f"{stem}_{k}.{ext}" for k in range(cfg.runs)
                                   for stem, ext in (("run", "jsonl"), ("final_front", "csv"))]
        self.counters["experiment.bytes_read"] += sum((exp_dir / n).stat().st_size for n in names)

    def final_counters(self) -> Counter:
        counters = Counter(self.counters)
        counters["moead.archive_size_final"] = sum(self._archive.values())
        counters["moead.runs"] = len(self._archive)
        return counters

    def write(self, fh) -> None:
        """One line of counters, then one line per span."""
        fh.write(json.dumps({"op": self.op_id, "counters": self.final_counters()}) + "\n")
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")


def _span_times(spans: list[list]) -> tuple[list[float], list[float]]:
    """Per span: duration and self time (duration minus direct children), in s."""
    duration = [(s[2] - s[1]) / 1e9 for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[3] is not None:
            children[s[3]] += d
    return duration, [d - c for d, c in zip(duration, children)]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost(spans: list[list], index: int, key) -> bool:
    """No ancestor of the span shares its key (name or layer)."""
    own = key(spans[index][0])
    parent = spans[index][3]
    while parent is not None:
        if key(spans[parent][0]) == own:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(tracers: list[Tracer], untraced_s: list[float],
                  traced_s: list[float], import_s: dict[str, float]) -> dict[str, float]:
    """Per-operation means of the per-layer metrics over the traced operations."""
    ops = len(tracers)
    counters: Counter = Counter()
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    layer_busy: Counter = Counter()
    layer_self: Counter = Counter()
    evaluate_ms: list[float] = []
    for tracer in tracers:
        spans = tracer.spans
        counters.update(tracer.final_counters())
        duration, self_time = _span_times(spans)
        for i, span in enumerate(spans):
            name = span[0]
            calls[name] += 1
            own[name] += self_time[i]
            layer_self[_layer(name)] += self_time[i]
            if _outermost(spans, i, lambda n: n):
                busy[name] += duration[i]
            if _outermost(spans, i, _layer):
                layer_busy[_layer(name)] += duration[i]
            if name == "evaluator.evaluate":
                evaluate_ms.append(1e3 * duration[i])

    def per_op(value: float) -> float:
        return value / ops

    def quantile(q: int) -> float:
        if len(evaluate_ms) < 2:
            return evaluate_ms[0] if evaluate_ms else 0.0
        return statistics.quantiles(evaluate_ms, n=10, method="inclusive")[q - 1]

    evaluations = calls["evaluator.evaluate"]
    runs = counters["moead.runs"]
    wall = sum(traced_s)
    metrics = {
        "trajectory.build_dataset_ms": per_op(1e3 * busy["trajectory.build_dataset"]),
        "evaluator.evaluate.calls": per_op(evaluations),
        "evaluator.evaluate.busy_s": per_op(busy["evaluator.evaluate"]),
        "evaluator.evaluate.self_s": per_op(own["evaluator.evaluate"]),
        "evaluator.evaluate.p50_ms": quantile(5),
        "evaluator.evaluate.p90_ms": quantile(9),
        "evaluator.evaluate.wall_share": busy["evaluator.evaluate"] / wall,
        "evaluator.windows_per_eval": counters["evaluator.windows"] / evaluations if evaluations else 0.0,
        "evaluator.duplicate_frac": counters["evaluator.duplicates"] / evaluations if evaluations else 0.0,
    }
    for name in ("objectives.assemble", "objectives.rmse", "genome.offspring",
                 "nsga2.nondominated_sort", "moead.archive_insert", "analysis.hypervolume"):
        metrics[f"{name}.calls"] = per_op(calls[name])
        metrics[f"{name}.busy_s"] = per_op(busy[name])
    inserts = calls["moead.archive_insert"]
    metrics.update({
        "nsga2.nondominated_sort.wall_share": busy["nsga2.nondominated_sort"] / wall,
        "nsga2.dominance_pairs": per_op(counters["nsga2.dominance_pairs"]),
        "nsga2.crowding_distance.busy_s": per_op(busy["nsga2.crowding_distance"]),
        "nsga2.step.self_s": per_op(own["nsga2.step"]),
        "moead.archive_accept_frac": counters["moead.archive_accepted"] / inserts if inserts else 0.0,
        "moead.archive_size_final": counters["moead.archive_size_final"] / runs if runs else 0.0,
        "moead.tchebycheff_calls": per_op(counters["moead.tchebycheff_calls"]),
        "moead.step.self_s": per_op(own["moead.step"]),
        "experiment.persist_experiment.busy_s": per_op(busy["experiment.persist_experiment"]),
        "experiment.bytes_written": per_op(counters["experiment.bytes_written"]),
        "experiment.load_records.busy_s": per_op(busy["experiment.load_records"]),
        "experiment.bytes_read": per_op(counters["experiment.bytes_read"]),
        "experiment.summarize.busy_s": per_op(busy["experiment.summarize"]),
        "analysis.classify_validity.busy_s": per_op(busy["analysis.classify_validity"]),
        "analysis.hypervolume.points": per_op(counters["analysis.hypervolume.points"]),
        "analysis.kde_density.busy_s": per_op(busy["analysis.kde_density"]),
        "analysis.spearman.busy_s": per_op(busy["analysis.spearman"]),
        "analysis.spearman.permutation_calls": per_op(counters["analysis.spearman.permutation_calls"]),
        "analysis.permutation_test.busy_s": per_op(busy["analysis.permutation_test"]),
        "analysis.ranksum_test.busy_s": per_op(busy["analysis.ranksum_test"]),
        "cli.import.neurotraj_s": import_s["neurotraj"],
        "cli.import.scipy_stats_s": import_s["scipy.stats"],
        "cli.analyze.self_s": per_op(own["cli.analyze"]),
    })
    for name in LAYERS:
        metrics[f"layer.{name}.busy_s"] = per_op(layer_busy[name])
        metrics[f"layer.{name}.self_s"] = per_op(layer_self[name])
    metrics.update({
        "trace.untraced_wall_s": statistics.median(untraced_s),
        "trace.traced_wall_s": statistics.median(traced_s),
        "trace.overhead_s": statistics.median(t - u for t, u in zip(traced_s, untraced_s)),
    })
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of `neurotraj.cli` (which nests the package import)
    and of `scipy.stats`, from the stderr of
    `python -X importtime -c "import neurotraj.cli"`."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if cum.isdigit():
            cumulative[name] = int(cum) / 1e6
    return {"neurotraj": cumulative.get("neurotraj.cli", 0.0),
            "scipy.stats": cumulative.get("scipy.stats", 0.0)}


def metric_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"), ("_share", "ratio"),
                         ("bytes_written", "bytes"), ("bytes_read", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"
