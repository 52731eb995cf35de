"""The tauword benchmark: one seeded workload, driven in a closed loop.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
client in one thread issues ops back to back (a closed loop), in whole passes
over the workload's op pool, until the timed ops add up to S seconds or
more.  Metrics come from each op's fastest pass.  Results
are checked against the oracles outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one pass of the op pool untraced and the same pass traced,
then the layer size sweep and the CLI cold start, and reports the per-layer
metrics of BENCHMARK.json.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
COLD_START_REPEATS = 5


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SetupProbe:
    """Import time plus decoding every input once, each in a fresh interpreter."""

    def __init__(self, inputs, workdir: Path):
        self.manifest = workdir / "manifest.json"
        self.manifest.write_text(json.dumps(inputs))
        self.times: list[float] = []

    def measure(self, repeats: int) -> None:
        for _ in range(repeats):
            done = subprocess.run([sys.executable, str(HERE / "decode_inputs.py"), str(self.manifest)],
                                  env=_env(), capture_output=True, text=True, timeout=120, check=True)
            self.times.append(float(done.stdout.strip().splitlines()[-1]))


def measure_cold_start() -> float:
    """Median wall time of launching ``python -m tauword.cli orders theta 1``."""
    times = []
    for _ in range(COLD_START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tauword.cli", "orders", "theta", "1"], env=_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Unlike a single order statistic it
    does not jump when the op at the p-th rank changes."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200  # midpoint rule on each of the n slices of [0, 1]
    weights = [0.0] * n
    for k in range(n * steps):
        t = (k + 0.5) / (n * steps)
        weights[k // steps] += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def attempt(op, cli, run=None):
    """(outcome, seconds); the outcome is None when an exception escaped."""
    t0 = time.perf_counter()
    try:
        outcome = run(op.kind, lambda: op.run(cli)) if run else op.run(cli)
    except (Exception, SystemExit):
        outcome = None
    return outcome, time.perf_counter() - t0


def judge(op, outcome) -> bool:
    if outcome is None:
        return False
    try:
        return bool(op.check(outcome))
    except Exception:
        return False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.wrong = Counter()  # well-formed ops whose verdict disagreed with the oracle

    def add(self, op, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed[op.kind] += 1
            if not op.malformed:
                self.wrong[op.kind] += 1

    def report(self, out) -> None:
        for kind, n in sorted(self.failed.items()):
            label = "WRONG" if kind in self.wrong else "failed (malformed-input defect)"
            print(f"  {label}: {kind} x{n}", file=out)


def timed_run(wl, cli, seconds: float, workdir: Path):
    setup = SetupProbe(wl.inputs, workdir)
    tally = Tally()
    for op in wl.warmup:
        op.run(cli)
    # Whole passes over the pool.  The first pass checks every outcome against
    # its oracle; later passes must reproduce the first pass's outcome.
    passes: list[list[float]] = []
    first: list[tuple[str, bool]] = []
    timed = 0.0
    while timed < seconds:
        latencies = []
        for i, op in enumerate(wl.ops):
            outcome, dt = attempt(op, cli)
            latencies.append(dt)
            if not passes:
                first.append((_digest(outcome), judge(op, outcome)))
            digest, ok = first[i]
            tally.add(op, ok and digest == _digest(outcome))
        passes.append(latencies)
        timed += sum(latencies)
        # set-up samples are spread over the run, so their median sees the
        # same machine phases as the ops do
        setup.measure(2)
    setup.measure(max(0, SETUP_REPEATS - len(setup.times)))
    # Each op's latency is its fastest pass.  On a shared machine the same op
    # runs up to a third slower for tens of seconds at a time; the fastest of
    # many passes is what repeats from run to run.
    # The quantiles are Harrell-Davis estimates: the op at a given rank
    # changes with the seed, and near the 90th percentile neighbouring ops
    # differ by up to a third, so one order statistic jumps from seed to seed.
    per_op = sorted(min(samples) for samples in zip(*passes))
    p90_rank = -(-9 * len(per_op) // 10)  # nearest rank
    metrics = {
        "setup_s": statistics.median(setup.times),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": harrell_davis(per_op, 0.5) * 1e3,
        "op_p90_ms": harrell_davis(per_op, 0.9) * 1e3,
        "failed_ratio": sum(tally.failed.values()) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = len(per_op) - p90_rank
    print(f"{wl.name}: {len(passes)} passes of {len(per_op)} ops ({tally.attempted} samples), "
          f"{timed:.2f} s timed; p90 over {len(per_op)} per-op minima, {beyond} beyond its rank",
          file=sys.stderr)
    if beyond < 10:
        print("  warning: fewer than 10 samples beyond p90", file=sys.stderr)
    return tally, metrics


def _digest(outcome) -> str:
    return hashlib.sha1(repr(outcome).encode()).hexdigest()


def traced_run(wl, cli, seed: int):
    import sweep
    import tracing

    tally = Tally()
    for op in wl.warmup:
        op.run(cli)
    reference = []
    for op in wl.ops:
        outcome, _ = attempt(op, cli)
        reference.append(_digest(outcome))
        tally.add(op, judge(op, outcome))
    # checks call the library too, so outcomes of the traced pass are only
    # compared with the untraced ones, after the wrappers are gone
    traced_digests = []
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        for op in wl.ops:
            outcome, _ = attempt(op, cli, tracer.op)
            traced_digests.append(_digest(outcome))
        traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for op in wl.ops:
        attempt(op, cli)
    untraced = time.perf_counter() - t0
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")
    for op, a, b in zip(wl.ops, reference, traced_digests):
        if a != b:
            tally.wrong[op.kind] += 1  # tracing changed an outcome
    tracer.write(ROOT / ".bench_out" / f"spans_{wl.name}")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["cli.cold_start_s"] = measure_cold_start()
    metrics.update(sweep.run(seed))
    print(f"{wl.name}: traced {len(tracer.name)} spans over {len(wl.ops)} ops; "
          f"untraced pass {untraced:.2f} s, traced {traced:.2f} s", file=sys.stderr)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tauword" / "__init__.py").is_file():
        print(f"error: no tauword sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tauword import cli

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            tally, metrics = traced_run(wl, cli, args.seed)
        else:
            tally, metrics = timed_run(wl, cli, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    tally.report(sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": sum(tally.failed.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
