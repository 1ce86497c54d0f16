"""The neurotraj benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It makes the workload's inputs from the seed, then calls the user's entry
point `neurotraj.cli.main` in this one process, repeating the workload's
operation (two `neurotraj run` calls, or the fixed set of `neurotraj
analyze` comparisons) for S seconds. It checks every output and prints each
metric by name and unit; the gated times are scaled to the nominal speed of
a fixed calibration loop. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 1` each
operation runs once untraced and once traced, and the metrics are the
per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere, before numpy loads here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NEUROTRAJ_SEED", None)  # the seed comes from --seed only

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
IMPORTTIME_SAMPLES = 3
RUN_DEADLINE_S = 165.0  # a run must end within 180 s
# The shared host switches between a fast and a 1.6x slower state every few
# seconds, in a mix that differs from one run to the next. The gated times are
# therefore scaled to a fixed speed: by the calibration loop's nominal time
# over its mean time in the same stretch.
CALIBRATION_ITERATIONS = 250_000
CALIBRATION_NOMINAL_S = 0.040  # about the loop's median time on the adoption machine
# A set-up sample: after the import, the child times the calibration loop
# itself and prints how long that took, so the parent can take it out.
SETUP_CHILD = f"""import neurotraj.cli
import sys, time
start = time.perf_counter()
sys.path.insert(0, {str(HERE)!r})
from run import calibrate
calibration = [calibrate(), calibrate()]
print(time.perf_counter() - start, *calibration)
"""


@dataclass(frozen=True)
class Run:
    """One `neurotraj run` of a preset, shortened to one run."""

    preset: str
    duration_s: float  # scenario length; sets the validation and test window counts
    generations: int
    population: int | None = None  # None keeps the preset's


@dataclass(frozen=True)
class Search:
    """One `neurotraj run` per entry, in turn."""

    runs: tuple


@dataclass(frozen=True)
class Compare:
    """The fixed set of `neurotraj analyze A B` calls on synthesized records."""

    comparisons: tuple  # ((preset, scale), (preset, scale)) pairs


PAPER_COMPARISONS = (
    (("exp6", 1.0), ("exp7", 1.0)),
    (("exp8", 1.0), ("exp9", 1.0)),
    (("exp10", 1.0), ("exp11", 1.0)),
    (("exp12", 1.0), ("exp13", 1.0)),
    (("exp8", 0.2), ("exp9", 0.2)),  # the README's scaled example
)

# Why each workload exists is in README.md.
WORKLOADS = {
    "search": Search((Run("exp2", 30.0, 1, population=300), Run("exp13", 150.0, 3))),
    "analyze-compare": Compare(PAPER_COMPARISONS),
}
# The same code paths at sizes that finish in about a second, for the tests.
TINY_WORKLOADS = {
    "search": Search((Run("exp2", 40.0, 1, population=12), Run("exp13", 40.0, 1, population=6))),
    "analyze-compare": Compare(((("exp8", 0.2), ("exp9", 0.2)), (("exp12", 0.2), ("exp13", 0.2)))),
}


def _python(args: list[str], timeout: float = 60) -> subprocess.CompletedProcess:
    """A child interpreter on the checkout's sources; waits for it to end."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=timeout, capture_output=True, text=True, check=False)


def calibrate() -> float:
    """Wall time of a fixed integer and float loop. It runs no program code and
    allocates nothing the garbage collector tracks, so it changes only with
    the speed the host gives this process."""
    start = time.perf_counter()
    acc, x = 0, 0.5
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
        x = math.sqrt(x * 1.0001 + 0.3)
    return time.perf_counter() - start


def at_nominal_speed(wall_s: float, calibration: list[float]) -> float:
    """A wall time at the calibration loop's nominal speed, given the loop's
    times in the same stretch. A mean, not a median, of the loop's times:
    it tracks the share of the stretch the host spent in its slow state,
    where a median jumps between the states."""
    return wall_s * CALIBRATION_NOMINAL_S / statistics.fmean(calibration)


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import neurotraj.cli and exit,
    as measured and at the calibration loop's nominal speed."""
    walls, scaled = [], []
    for _ in range(samples):
        start = time.perf_counter()
        proc = _python(["-c", SETUP_CHILD])
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"import neurotraj.cli failed:\n{proc.stderr}")
        calibrating, *calibration = map(float, proc.stdout.split())
        walls.append(wall - calibrating)
        scaled.append(at_nominal_speed(walls[-1], calibration))
    return walls, scaled


def measure_imports(samples: int) -> dict[str, float]:
    """Median -X importtime attribution of the import of neurotraj.cli."""
    from tracing import parse_importtime

    parsed = [parse_importtime(_python(["-X", "importtime", "-c", "import neurotraj.cli"]).stderr)
              for _ in range(samples)]
    return {key: statistics.median(p[key] for p in parsed) for key in parsed[0]}


class Bench:
    """One benchmark run: inputs, repeated operations, checks and digests."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.name = workload
        self.spec = (TINY_WORKLOADS if tiny else WORKLOADS)[workload]
        self.seed = seed
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.lines: list[str] = []
        self.spans_file: Path | None = None
        self.initial_fronts: dict[int, list] = {}
        self.calibration: list[float] = []  # after each untraced command

    # -- inputs -------------------------------------------------------------

    def prepare(self) -> None:
        self.dir.mkdir(parents=True)
        if isinstance(self.spec, Search):
            self.genomes_per_op = sum(self.describe(run, self.search_config(0, k))
                                      for k, run in enumerate(self.spec.runs))
            self.lines.append(f"input: {self.genomes_per_op} genomes per operation; "
                              "fresh configs from the seed per operation")
            return
        # In a child process, so that the synthesizer's memory stays out of peak_rss_mb.
        proc = _python([str(HERE / "synth.py"), str(self.dir / "inputs"), f"{self.name}:{self.seed}",
                        json.dumps(self.spec.comparisons)], timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"synthesizing records failed:\n{proc.stderr}")
        self.pairs = [tuple(self.dir / "inputs" / name for name in pair)
                      for pair in json.loads(proc.stdout.splitlines()[-1])]
        self.lines.append("input: analyze " + ", ".join(f"{a.name} {b.name}" for a, b in self.pairs))

    def search_config(self, index: int, k: int):
        """Operation `index`'s config of run `k`: the preset shortened, seeds drawn from --seed."""
        from neurotraj.experiment import ExperimentConfig, preset_config

        run = self.spec.runs[k]
        rng = Random(f"{self.name}:{self.seed}:{index}:{k}")
        doc = preset_config(run.preset, base_seed=rng.randrange(1, 2 ** 31)).to_dict()
        doc.update(runs=1, generations=run.generations)
        if run.population is not None:
            doc["population"] = run.population
        doc["dataset"].update(duration_s=run.duration_s, seed=rng.randrange(2 ** 31))
        return ExperimentConfig.from_dict(doc)

    def describe(self, run: Run, cfg) -> int:
        """State the input size of one run; returns the genomes it scores."""
        from neurotraj import moead
        from neurotraj.experiment import build_dataset

        m = len(cfg.objective_ids)
        size = cfg.population if cfg.algorithm == "nsga2" else \
            moead.simplex_lattice(m, moead.lattice_resolution_for(m, cfg.population)).size
        genomes = size * (cfg.generations + 1) * cfg.runs
        counts = build_dataset(cfg).counts()
        self.lines.append(
            f"input: {run.preset} {cfg.algorithm} {'+'.join(o.token for o in cfg.objective_ids)}; "
            f"pop {size}, {cfg.generations} generations, {cfg.runs} run; {run.duration_s:g} s "
            f"scenario: {counts['validation']} validation + {counts['test']} test windows; "
            f"{genomes} genomes")
        return genomes

    # -- operations -----------------------------------------------------------

    def operation(self, index: int, tracer) -> list[float]:
        """Run operation `index` once; returns the wall time of each command."""
        from checks import digest

        op_dir = self.dir / f"op{index}{'t' if tracer else 'u'}"
        op_dir.mkdir()
        if isinstance(self.spec, Search):
            commands = []
            for k in range(len(self.spec.runs)):
                cfg = self.search_config(index, k)
                (op_dir / f"input{k}.json").write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
                commands.append(["run", "--config", f"input{k}.json", "--seed", str(cfg.base_seed),
                                 "--jobs", "1", "--out", f"exp{k}"])
        else:
            commands = [["analyze", os.path.relpath(a, op_dir), os.path.relpath(b, op_dir),
                         "--out", f"{a.name}-{b.name}"] for a, b in self.pairs]
        walls = []
        cwd = os.getcwd()
        os.chdir(op_dir)  # relative paths keep the outputs identical between runs
        try:
            if tracer:
                tracer.install()
            for argv in commands:
                self.attempted += 1
                code, errors, wall = call_cli(argv)
                walls.append(wall)
                if not tracer:
                    self.calibration.append(calibrate())
                problems = [f"`neurotraj {argv[0]}` exited {code}"] + errors if code != 0 else []
                problems += self.check(op_dir, argv, len(walls) - 1)
                if problems:
                    self.failed += 1
                    self.problems += [f"operation {index} `{' '.join(argv)}`: {p}" for p in problems]
        finally:
            if tracer:
                tracer.uninstall()
            os.chdir(cwd)
        for path in op_dir.glob("input*.json"):
            path.unlink()
        out = digest(op_dir)
        if self.digests.setdefault(index, out) != out:
            self.failed += 1
            self.problems.append(f"operation {index}: traced and untraced outputs differ")
        shutil.rmtree(op_dir)
        return walls

    def check(self, op_dir: Path, argv: list[str], k: int) -> list[str]:
        from checks import check_analysis, check_experiment

        if isinstance(self.spec, Search):
            return check_experiment(op_dir / argv[-1], self.initial_fronts)
        a, b = self.pairs[k]
        return check_analysis(op_dir / argv[-1], a, b)

    def run(self, deadline: float, trace: bool, started: float) -> dict:
        """Repeat the operation while another repetition, as long as the last
        one, ends before `deadline`; with `trace`, each repetition runs once
        untraced and once traced, in alternating order."""
        from tracing import Tracer

        measured = {"walls": [], "traced_walls": [], "traces": []}
        index = 0
        last = 0.0
        while index == 0 or time.perf_counter() + last < deadline:
            repetition_start = time.perf_counter()
            if time.perf_counter() - started > RUN_DEADLINE_S:
                self.problems.append(f"stopped after {index} operations to end within 180 s")
                break
            tracer = Tracer(op_id=index) if trace else None
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            for t in order if trace else (None,):
                walls = self.operation(index, t)
                measured["traced_walls" if t else "walls"].append(walls)
            if trace:
                measured["traces"].append(tracer)
                self.count_evaluations(index, tracer)
            last = time.perf_counter() - repetition_start
            index += 1
        return measured

    def count_evaluations(self, index: int, tracer) -> None:
        if isinstance(self.spec, Search):
            calls = sum(1 for s in tracer.spans if s[0] == "evaluator.evaluate")
            if calls != self.genomes_per_op:
                self.failed += 1
                self.problems.append(f"operation {index}: {calls} evaluations, expected {self.genomes_per_op}")

    def write_spans(self, tracers) -> None:
        """The spans of every traced operation, kept after the run."""
        self.spans_file = WORK / "traces" / f"{self.name}-seed{self.seed}.jsonl"
        self.spans_file.parent.mkdir(parents=True, exist_ok=True)
        with open(self.spans_file, "w", encoding="utf-8") as fh:
            for tracer in tracers:
                tracer.write(fh)


def call_cli(argv: list[str]) -> tuple[int | None, list[str], float]:
    """One `neurotraj.cli.main` call with stdout discarded: (exit code, errors, wall s)."""
    from neurotraj import cli

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - reported as a failed operation
        return None, [traceback.format_exc()], time.perf_counter() - start
    return code, [], time.perf_counter() - start


@contextlib.contextmanager
def initial_fronts_captured(bench: Bench):
    """The initial fronts are not persisted; the hypervolume check needs them,
    so `neurotraj.cli.run_experiment` hands its records to the benchmark."""
    from neurotraj import cli

    run_experiment = cli.run_experiment

    def capturing(*args, **kwargs):
        records = run_experiment(*args, **kwargs)
        bench.initial_fronts = {rec.run_index: rec.initial_front_objectives for rec in records}
        return records

    cli.run_experiment = capturing
    try:
        yield
    finally:
        cli.run_experiment = run_experiment


def end_to_end(bench: Bench, setup: tuple[list[float], list[float]], measured: dict) -> dict:
    setup_walls, setup_scaled = setup
    command_wall_s = statistics.fmean(sum(walls) for walls in measured["walls"])
    command_s = at_nominal_speed(command_wall_s, bench.calibration)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "command_s": (command_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    derived = {"analyze_s": (command_s, "s")} if isinstance(bench.spec, Compare) else \
        {"genomes_per_s": (bench.genomes_per_op / command_s, "1/s")}
    derived["failed_ops_frac"] = (bench.failed / bench.attempted, "ratio")
    derived["ops_attempted"] = (bench.attempted, "count")
    derived["command_wall_s"] = (command_wall_s, "s")
    derived["setup_wall_s"] = (statistics.median(setup_walls), "s")
    derived["calibration_ms"] = (1000 * statistics.fmean(bench.calibration), "ms")
    bench.lines.append(f"{len(measured['walls'])} repetitions, {len(setup_walls)} fresh interpreters; "
                       f"command_s is a mean, setup_s a median, both at a {1000 * CALIBRATION_NOMINAL_S:g} ms "
                       "calibration loop")
    bench.lines.append("command wall samples: " + " ".join(f"{sum(w):.4f}" for w in measured["walls"]))
    bench.lines.append("calibration ms samples: " + " ".join(f"{1000 * c:.2f}" for c in bench.calibration))
    bench.lines.append("setup wall samples: " + " ".join(f"{w:.4f}" for w in setup_walls))
    for name, (value, unit) in {**metrics, **derived}.items():
        bench.lines.append(f"{name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(bench: Bench, measured: dict, imports: dict) -> dict:
    from tracing import layer_metrics, metric_unit

    bench.write_spans(measured["traces"])
    values = layer_metrics(measured["traces"], [sum(w) for w in measured["walls"]],
                           [sum(w) for w in measured["traced_walls"]], imports)
    bench.lines.append(f"{len(measured['traces'])} traced repetitions; per-operation means")
    for name, value in values.items():
        bench.lines.append(f"{name} {value:.6g} {metric_unit(name)}")
    bench.lines.append(f"spans: {bench.spans_file.relative_to(ROOT)}")
    return {name: {"value": value, "unit": metric_unit(name)} for name, value in values.items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, list[str]]:
    """Returns the result object and the human-readable lines before it."""
    started = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import neurotraj.cli  # noqa: F401 - imported before any timing

    bench = Bench(workload, seed, tiny=tiny)
    bench.lines.append(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    metrics = {}
    try:
        bench.prepare()
        deadline = time.perf_counter() + seconds  # set-up samples count in the measured time
        setup = ([], []) if trace else measure_setup(1 if tiny else SETUP_SAMPLES)
        imports = measure_imports(1 if tiny else IMPORTTIME_SAMPLES) if trace else {}
        with initial_fronts_captured(bench):
            measured = bench.run(deadline, trace, started)
        metrics = per_layer(bench, measured, imports) if trace else end_to_end(bench, setup, measured)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    if bench.digests:
        bench.lines.append(f"digest sha256:{bench.digests[0]}")
    bench.lines += [f"problem: {p}" for p in bench.problems]
    result = {"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    return result, bench.lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="neurotraj benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "neurotraj" / "__init__.py").is_file():
        print(f"error: no neurotraj sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
