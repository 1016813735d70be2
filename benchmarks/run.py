"""morreybench benchmark: seeded CLI workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload harness --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --record          # rewrite the references

One run is one single-threaded process; its set-up also starts five
short-lived interpreters, one at a time, to time the import.  It imports
``morreybench`` from ``src/`` of the checkout, generates the workload's
inputs from the seed, runs one untimed warm-up pass and then whole passes
of the workload's op mix until ``--seconds`` is used (at least 20 ops).
Every op is a real command run through ``morreybench.cli.main(argv)`` and
its outputs are checked against ``benchmarks/reference/<workload>.json``;
a mismatch, an unexpected exit code or an exception counts as a failed op.

``--trace 0`` prints the end-to-end metrics: ``ops_per_s`` (timed ops over
their summed latencies), ``op_s.p50`` (median over the mix's ops of each
op's mean latency), ``setup_s`` (median of five set-ups, each a
fresh-interpreter import of ``morreybench.cli`` plus input generation) and
``peak_rss_mb``.  The three timings are scaled to a reference host speed
by a calibration loop timed between ops (see ``calibration.py``).

``--trace 1`` prints the per-layer metrics.  It runs two pairs of an
untraced and a traced pass of the workload (for the tracing overhead), one
harness pass with ``MORREY_THREADS`` 1 and one with 2, and then traced
cycles, each one pass of every workload with the named one first, so every
layer is measured at every depth any workload uses.  Per-layer times and
counts are per cycle.  Spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``
and a summary with provenance, fitted exponents and the baseline rows to
``.bench_out/summary-<workload>-<seed>-trace1.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MORREY_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_BASE = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_OPS = 20
SETUP_SAMPLES = 5

sys.path.insert(0, HERE)
import calibration  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def import_program():
    """Import morreybench from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "morreybench", "cli.py")):
        raise BenchError(f"no morreybench sources under {SRC}")
    sys.path.insert(0, SRC)
    cli = importlib.import_module("morreybench.cli")
    importlib.import_module("morreybench.acceptance")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"morreybench was imported from {cli.__file__}")
    return cli


def fresh_import() -> None:
    """Start a new interpreter that imports morreybench.cli, and wait for it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import morreybench.cli"], cwd=ROOT,
                   env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)


def make_inputs(variant: int) -> str:
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=WORK_BASE)
    workloads.generate_inputs(variant, workdir)
    return workdir


def set_up(variant: int) -> tuple[float, float, str]:
    """Set-up time (fresh import plus inputs) and the last set-up's inputs.

    Returns the median over SETUP_SAMPLES set-ups of the time scaled to the
    reference host speed, as the timed ops are, and the unscaled median.
    """
    times, loops, workdir = [], [calibration.loop_seconds()], None
    for _ in range(SETUP_SAMPLES):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = time.perf_counter()
        fresh_import()
        workdir = make_inputs(variant)
        times.append(time.perf_counter() - start)
        loops.append(calibration.loop_seconds())
    scaled = [t * k for t, k in zip(times, calibration.scales(loops))]
    return statistics.median(scaled), statistics.median(times), workdir


def _out_paths(argv):
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--out"]


class Runner:
    """Runs ops through ``cli.main`` and checks them against the references."""

    def __init__(self, cli, variant: int, workdir: str, references: dict | None):
        self.cli = cli
        self.variant = variant
        self.workdir = workdir
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # first problem of each failing op
        self.recorded = {}

    def run_op(self, workload: str, op_id: str, argv: list[str]) -> float:
        for path in _out_paths(argv):
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        crashed = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse refusals exit with a code
            rc = exc.code
        except Exception:  # an op that raises is a failed op, not a dead run
            rc, crashed = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        record = oracle.capture(rc, out.getvalue(), err.getvalue(),
                                _out_paths(argv), self.workdir)
        if self.references is None:
            self.recorded[op_id] = record
            return elapsed
        want = self.references.get(workload, {}).get(str(self.variant), {}).get(op_id)
        if crashed:
            problem = "exception: " + crashed.strip().splitlines()[-1]
        elif want is None:
            problem = "no reference recorded"
        else:
            problem = oracle.compare(record, want)
        if problem:
            self.failed += 1
            self.failures.setdefault(f"{workload}/{op_id}", problem)
        return elapsed

    def run_pass(self, workload: str, on_op=None) -> list[float]:
        times = []
        for op_id, argv in workloads.ops(workload, self.variant, self.workdir):
            if on_op:
                on_op(workload, op_id, argv)
            times.append(self.run_op(workload, op_id, argv))
        return times


def timed_passes(runner: Runner, workload: str, seconds: float, estimate: float):
    """Whole passes while the next one is expected to fit, >= MIN_OPS ops.

    Returns the op latencies of each pass and, for every op, the host scale:
    ``calibration.REFERENCE_S`` over the mean calibration loop time just
    before and just after the op.
    """
    passes, loops = [], []

    def calibrate(*_):
        loops.append(calibration.loop_seconds())

    start = time.perf_counter()
    while True:
        ops = sum(len(p) for p in passes)
        expected = statistics.median([sum(p) for p in passes]) if passes else estimate
        if ops >= MIN_OPS and time.perf_counter() - start + expected > seconds:
            break
        passes.append(runner.run_pass(workload, on_op=calibrate))
    calibrate()
    return passes, calibration.scales(loops), loops


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu_model": None, "blas": None,
            "steal_ticks": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/stat") as fh:
            info["steal_ticks"] = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return info


# --- end-to-end run ------------------------------------------------------------

def end_to_end(runner: Runner, workload: str, seconds: float, setup_s: float):
    """End-to-end metrics over whole timed passes, at the reference host speed.

    Each op latency is scaled by ``calibration.REFERENCE_S`` over the mean
    calibration loop time just before and after the op (see
    ``calibration``).  Both timings are means over the run: a median jumps
    between the host's fast and slow phases, while a mean moves smoothly
    with the share of time spent in each.  ``op_s.p50`` is the median over
    the mix's ops of each op's mean latency.
    """
    warm = sum(runner.run_pass(workload))
    passes, scales, loops = timed_passes(runner, workload, seconds, warm)
    per_pass = len(passes[0])
    scaled = [[t * scales[i * per_pass + j] for j, t in enumerate(p)]
              for i, p in enumerate(passes)]
    op_ids = [op_id for op_id, _ in workloads.ops(workload, runner.variant, runner.workdir)]

    def summarize(rows):
        lat = [t for row in rows for t in row]
        per_op = {op_id: [row[i] for row in rows] for i, op_id in enumerate(op_ids)}
        return (len(lat) / sum(lat),
                statistics.median(statistics.fmean(v) for v in per_op.values()),
                per_op)

    ops_per_s, p50, _ = summarize(scaled)
    raw_ops_per_s, raw_p50, raw_per_op = summarize(passes)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_s.p50": (p50, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    n = sum(len(p) for p in passes)
    print(f"timed: {len(passes)} passes, {n} op samples ({len(op_ids)} ops x "
          f"{len(passes)}); host speed {statistics.fmean(scales)!r} of reference")
    return metrics, {"pass_s": [sum(p) for p in passes], "calibration_s": loops,
                     "unscaled": {"ops_per_s": raw_ops_per_s, "op_s.p50": raw_p50},
                     "op_s": raw_per_op}


# --- traced run ----------------------------------------------------------------

def _op_table_hook(table, tracer):
    def on_op(workload, op_id, argv):
        tracer.op = len(table)
        operator = argv[argv.index("--operator") + 1] if "--operator" in argv else ""
        table.append({"workload": workload, "op": op_id, "command": argv[0],
                      "operator": operator})
    return on_op


def harness_pass_seconds(runner: Runner, threads: str) -> float:
    os.environ["MORREY_THREADS"] = threads
    try:
        return sum(runner.run_pass("harness"))
    finally:
        os.environ.pop("MORREY_THREADS", None)


def tracing_overhead(runner: Runner, workload: str) -> float:
    """Median over two back-to-back pass pairs of traced over untraced time.

    Pairs keep both passes in one phase of the host's speed.
    """
    ratios = []
    for _ in range(2):
        plain = sum(runner.run_pass(workload))
        probe = Tracer()
        probe.install("morreybench")
        try:
            ratios.append(sum(runner.run_pass(workload)) / plain)
        finally:
            probe.uninstall()
    return statistics.median(ratios)


def traced(runner: Runner, workload: str, seconds: float):
    runner.run_pass(workload)  # warm-up
    overhead = tracing_overhead(runner, workload)
    speedup_2t = harness_pass_seconds(runner, "1") / harness_pass_seconds(runner, "2")

    tracer = Tracer()
    missing = tracer.install("morreybench")
    order = [workload] + [w for w in workloads.WORKLOADS if w != workload]
    op_table, op_walls = [], []
    hook = _op_table_hook(op_table, tracer)
    cycles, cycle_times, pass_s = 0, [], {w: [] for w in order}
    loops = [calibration.loop_seconds()]
    start = time.perf_counter()
    try:
        while cycles == 0 or (time.perf_counter() - start
                              + statistics.median(cycle_times) <= seconds):
            t0 = time.perf_counter()
            for w in order:
                times = runner.run_pass(w, on_op=hook)
                op_walls.extend(times)
                pass_s[w].append(sum(times))
            cycle_times.append(time.perf_counter() - t0)
            cycles += 1
            loops.append(calibration.loop_seconds())
    finally:
        tracer.uninstall()
        tracer.op = -1

    metrics, summary = layer_metrics(tracer.spans, op_table, op_walls, cycles,
                                     workloads.WORKLOADS)
    metrics["experiments.parallel_map.speedup_2t"] = (speedup_2t, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    summary.update({"cycles": cycles, "missing_layers": missing, "calibration_s": loops,
                    "traced_pass_s": pass_s})
    return metrics, summary, tracer


# --- entry point ---------------------------------------------------------------

def load_references(names) -> dict:
    refs = {}
    for w in names:
        path = os.path.join(REFERENCE_DIR, f"{w}.json")
        if not os.path.isfile(path):
            raise BenchError(f"missing reference file {path}")
        with open(path) as fh:
            refs[w] = json.load(fh)
    return refs


def record(cli) -> None:
    """Run one pass of every workload for every variant and store the outputs."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for w in workloads.WORKLOADS:
        table = {}
        for variant in range(workloads.VARIANTS):
            workdir = tempfile.mkdtemp(prefix="record-", dir=WORK_BASE)
            try:
                workloads.generate_inputs(variant, workdir)
                runner = Runner(cli, variant, workdir, None)
                runner.run_pass(w)
                table[str(variant)] = runner.recorded
            finally:
                shutil.rmtree(workdir)
        with open(os.path.join(REFERENCE_DIR, f"{w}.json"), "w") as fh:
            json.dump(table, fh, indent=None, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"recorded {w}: {workloads.VARIANTS} variants")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="morreybench benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record reference outputs for every variant and exit")
    ns = ap.parse_args(argv)
    if not ns.record and ns.workload is None:
        ap.error("--workload is required")
    return ns


def main(argv=None) -> int:
    ns = parse_args(argv)
    try:
        cli = import_program()
        os.makedirs(WORK_BASE, exist_ok=True)
        if ns.record:
            record(cli)
            return 0
        references = load_references(workloads.WORKLOADS if ns.trace else [ns.workload])
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    variant = workloads.variant_of(ns.seed)
    prov_start = provenance()
    os.makedirs(OUT_DIR, exist_ok=True)
    if ns.trace:
        workdir = make_inputs(variant)
    else:
        setup_s, raw_setup_s, workdir = set_up(variant)
    try:
        runner = Runner(cli, variant, workdir, references)
        if ns.trace:
            metrics, summary, tracer = traced(runner, ns.workload, ns.seconds)
            tracer.write_jsonl(os.path.join(OUT_DIR, f"trace-{ns.workload}-{ns.seed}.jsonl"))
        else:
            metrics, summary = end_to_end(runner, ns.workload, ns.seconds, setup_s)
            summary["unscaled"]["setup_s"] = raw_setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance()
    if prov["steal_ticks"] is not None and prov_start["steal_ticks"] is not None:
        prov["steal_ticks_during_run"] = prov["steal_ticks"] - prov_start["steal_ticks"]
    summary.update({"workload": ns.workload, "seed": ns.seed, "variant": variant,
                    "provenance": prov, "failures": runner.failures,
                    "fail_ratio": runner.failed / runner.attempted})
    name = f"summary-{ns.workload}-{ns.seed}-trace{ns.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(summary, fh, indent=1)
    for op, problem in runner.failures.items():
        print(f"FAILED {op}: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    if "unscaled" in summary:
        print("unscaled " + json.dumps(summary["unscaled"]))
    print(f"fail_ratio {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} ops)")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
