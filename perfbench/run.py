#!/usr/bin/env python3
"""ks2 benchmark: one workload, one seed, one closed-loop client, BLAS on one thread.

    python3 perfbench/run.py --workload solve-planted --seed 1 --seconds 15 --trace 0

Run from the repository root or elsewhere: the package is imported from the
``src/`` directory next to ``perfbench/``.  The run builds the workload's
inputs from the seed (timed several times for ``setup_s``), then repeats the
workload's fixed task list in whole rounds until ``--seconds`` have passed,
checking every output and hashing it into a digest that must repeat in
every round.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
makes a second pass over the same rounds with spans recorded around the
package's public functions and prints the per-layer metrics instead.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
import os

# All kernels work on d <= 10; idle BLAS threads on a small shared machine
# only add scheduler noise, so pin them before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # set-up samples before the timed rounds, and again after them
SIZES = ("full", "tiny")


@dataclass
class Pass:
    """One pass over the task list, repeated in whole rounds; times in seconds."""

    round_times: list = field(default_factory=list)
    task_times: list = field(default_factory=list)
    records: list = field(default_factory=list)  # first round, one per task (None on error)
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    found: list = field(default_factory=list)
    sandwich: list = field(default_factory=list)


def canonical(record) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def run_pass(tasks, seconds: float, tracer=None) -> Pass:
    """Repeat the task list until ``seconds`` of rounds have passed (at least one round)."""
    result = Pass()
    started = time.perf_counter()
    first: list = []
    while True:
        round_time = 0.0
        digest = hashlib.sha256()
        for tid, task in enumerate(tasks):
            result.attempted += 1
            problems, record = [], None
            if tracer is not None:
                tracer.task = tid
            t0 = time.perf_counter()
            try:
                out = task.run()
            except Exception:
                traceback.print_exc()
                problems = ["raised"]
            elapsed = time.perf_counter() - t0
            round_time += elapsed
            result.task_times.append(elapsed)
            if not problems:
                try:
                    with tracer.paused() if tracer is not None else nullcontext():
                        problems, record = task.check(out)
                except Exception:
                    traceback.print_exc()
                    problems = ["check raised"]
            blob = canonical(record)
            digest.update(blob)
            if not result.round_times:
                first.append(blob)
                result.records.append(record)
            elif blob != first[tid]:
                problems.append("output differs from the first round")
            if problems:
                result.failed += 1
                print(f"FAIL {task.label}: {'; '.join(problems)}", file=sys.stderr)
            if record is not None and "status" in record:
                result.found.append(record["status"] == "found")
            if record is not None and "sandwich" in record:
                result.sandwich.append(record["sandwich"])
        result.round_times.append(round_time)
        result.digest = digest.hexdigest()
        if time.perf_counter() - started >= seconds:
            return result


def time_import() -> float:
    """Seconds to import ks2 and the benchmark's modules in a fresh interpreter.

    numpy and scipy.linalg are imported first and not timed: their import
    time is most of the total and is not ks2's to change.
    """
    code = ("import sys, time; import numpy, scipy.linalg; sys.path[:0] = sys.argv[1:]; "
            "t0 = time.perf_counter(); import ks2, spans, workloads; "
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def share(flags: list) -> float:
    """Share of true flags; 1.0 when the workload has none (nothing was missed)."""
    return sum(flags) / len(flags) if flags else 1.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full",
                    help="input size; 'tiny' is for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "ks2" / "__init__.py").is_file():
        print(f"error: no ks2 package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import ks2
    import spans
    from workloads import WORKLOADS
    if Path(ks2.__file__).resolve().parent != SRC / "ks2":
        print(f"error: ks2 imported from {ks2.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    setup = WORKLOADS[args.workload]

    import_times, setup_times = [], []

    def sample_setup():
        import_times.append(time_import())
        t0 = time.perf_counter()
        built = setup(args.seed, args.size)
        setup_times.append(time.perf_counter() - t0)
        return built

    for _ in range(SETUP_REPS):
        tasks = sample_setup()
    measured = run_pass(tasks, args.seconds)
    # The machine's speed drifts over tens of seconds; samples on both sides
    # of the timed rounds keep setup_s from reading one moment of it.
    for _ in range(SETUP_REPS):
        sample_setup()
    passes = [measured]
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            tracer.task = spans.SETUP_TASK
            traced_tasks = setup(args.seed, args.size)
            traced = run_pass(traced_tasks, args.seconds / 2, tracer=tracer)
        passes.append(traced)
        values = spans.layer_metrics(tracer, traced, measured)
        units = dict(spans.LAYER_METRICS)
        print(f"traced rounds {len(traced.round_times)}; seconds: round median "
              f"{statistics.median(traced.round_times):.4f}")
        for name, calls, total, own in tracer.summary():
            if calls:
                print(f"span {name} calls {calls} total_s {total:.6g} self_s {own:.6g}")
    else:
        values = {
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "wall_s": statistics.median(measured.round_times),
            "task_p50_s": statistics.median(measured.task_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - measured.failed / measured.attempted,
            "found_ratio": share(measured.found),
            "sandwich_ratio": share(measured.sandwich),
        }
        units = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "peak_rss_mb": "MB",
                 "ok_ratio": "ratio", "found_ratio": "ratio", "sandwich_ratio": "ratio"}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    same_digest = all(p.digest == measured.digest for p in passes)
    if not same_digest:
        print("FAIL traced and untraced passes produced different outputs", file=sys.stderr)

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    rounds = measured.round_times
    print(f"rounds {len(rounds)} tasks/round {len(tasks)}; seconds: round median "
          f"{statistics.median(rounds):.4f} min {min(rounds):.4f} max {max(rounds):.4f}, "
          f"imports {[round(t, 4) for t in import_times]}, "
          f"setup reps {[round(t, 4) for t in setup_times]}")
    print(f"error_ratio {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    print(f"digest {args.workload} seed={args.seed} size={args.size} {measured.digest}")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and same_digest,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
