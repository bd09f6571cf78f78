"""gpnav benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload {suite,clutter,field} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout, on one thread, issuing each
operation after the previous one completes. The last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # one thread, set before numpy loads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("suite", "clutter", "field")
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (timed by the parent)")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's own src/ first on the path and make sure it is used."""
    if not (SRC / "gpnav" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gpnav sources at {SRC}; run it from "
                         "the root of a gpnav checkout")
    sys.path.insert(0, str(SRC))
    import gpnav
    if Path(gpnav.__file__).resolve().parent != SRC / "gpnav":
        raise SystemExit(f"benchmark: imported gpnav from {gpnav.__file__}, "
                         f"not from {SRC}")


def setup_seconds(args) -> float:
    """Median wall time from starting a fresh interpreter to its first op."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"benchmark: set-up child failed (exit {code})")
        samples.append(ready - start)
    return statistics.median(samples)


def make_workload(name: str, seed: int):
    import workloads
    if name == "suite":
        return workloads.Suite(seed)
    if name == "clutter":
        return workloads.Clutter(seed)
    return workloads.Field(seed, OUT)


def make_checker(workload, errors: list[str]):
    """The checker the first round runs on each operation's output.

    A failed check is recorded in errors and the round goes on.
    """
    import checks
    import workloads
    from gpnav import barrier

    if isinstance(workload, workloads.Suite):
        check = checks.check_episode
    elif isinstance(workload, workloads.Clutter):
        check = functools.partial(
            checks.check_clutter_frame, perception=workload.perception,
            kernel=workload.kernel, barrier_params=workload.barrier,
            lead_offset=workload.controller.lead_offset,
            program_evaluate=barrier.evaluate)
    else:
        check = functools.partial(
            checks.check_field_csv,
            axis=workloads.field_axis(), kernel=workload.kernel,
            barrier_params=workload.barrier)

    def checked(*outputs) -> None:
        try:
            check(*outputs)
        except checks.CheckFailure as exc:
            errors.append(f"{workload.name}: {exc}")

    return checked


def round_medians(series: list[list[float]], window: int = 1) -> list[float]:
    """A typical round: per window of `window` operations, its median over rounds.

    Every round does the same work, so each window's time over the rounds
    differs only by the machine; a spell in which the host takes the CPU
    away, or slows it, hits the one round it falls in and leaves the median
    alone. Rounds of unequal length (only when operations failed at
    different points) are taken as one long round.
    """
    if any(len(times) != len(series[0]) for times in series):
        series = [[t for times in series for t in times]]
    size = len(series[0])
    windows = [[sum(times[i:i + window]) for i in range(0, size, window)]
               for times in series]
    return [statistics.median(times) for times in zip(*windows)]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workload = make_workload(args.workload, args.seed)
        workload.warm_up()
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    import numpy as np

    import tracing
    workload = make_workload(args.workload, args.seed)
    workload.warm_up()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layers(tracer)
    errors: list[str] = []
    rounds = []
    origin = time.perf_counter()
    # Whole rounds only; another one starts while it would end nearer to the
    # requested length than stopping now, so runs last --seconds on average.
    elapsed = 0.0
    while not rounds or elapsed + 0.5 * elapsed / len(rounds) < args.seconds:
        checker = None if rounds else make_checker(workload, errors)
        rounds.append(workload.run_round(checker))
        elapsed = time.perf_counter() - origin
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(OUT / f"trace_{args.workload}_{args.seed}.csv", origin)

    for index, result in enumerate(rounds[1:], start=2):
        if result.digest != rounds[0].digest:
            errors.append(f"{args.workload}: round {index} outputs differ from "
                          "round 1 on the same inputs")
    wall = sum(sum(r.walls) for r in rounds)
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, attempted, wall)
    else:
        import resource
        latencies = round_medians([r.latencies for r in rounds])
        walls = round_medians([r.walls for r in rounds], workload.window)
        metrics = {
            "throughput_per_s": {"value": len(latencies) / sum(walls),
                                 "unit": "1/s"},
            "latency_ms_p50": {"value": statistics.median(latencies) * 1e3,
                               "unit": "ms"},
            "latency_ms_p99": {"value": float(np.percentile(latencies, 99)) * 1e3,
                               "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "unit": "MB"},
        }
    for message in errors[:10]:
        print(f"CHECK FAILED {message}", file=sys.stderr)
    if len(errors) > 10:
        print(f"CHECK FAILED ... and {len(errors) - 10} more", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"result_{args.workload}_{args.seed}_trace{args.trace}.json").write_text(
        line + "\n")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} ops in "
          f"{wall:.2f} s timed")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
