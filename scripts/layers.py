"""The one driver of the layer scripts (oracle_, solver_ and sparsifier_layers.py).

A layer script holds its INSTANCES, what it counts, its record fields and
its printed line; everything else is here: the command line (--reps,
--rounds, --against, --instances, --out) and its checks, the per-instance
loop, the timing children, the call counters and the JSON report, which
names the machine and the peak RSS of this process and its timing children.
A new layer row is one more INSTANCES entry.

Import this module before anything that imports numpy: it pins BLAS to one
thread, as in the benchmark, and that only takes effect before numpy's first
import.  It also puts this checkout's src/ first on sys.path, except in a
timing child, which has already put its own checkout's src/ there.

Wall times are taken in child processes, one per instance and checkout in
turn: for each instance, every round runs one child per checkout, the order
reversing from round to round, so a checkout compared against this one
(--against) is timed seconds apart and under the same outside load.  A
child puts its checkout's src/ first on sys.path, imports the layer script
as a module, calls one of its functions with JSON arguments and prints the
JSON result: the wall times of reps calls from the script's
wall_times(name, reps), or whatever else the script asks of the other
checkout.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = ("import importlib, json, sys; src, here, module, call, *args = sys.argv[1:]; "
         "sys.path[:0] = [src, here]; "
         "print(json.dumps(getattr(importlib.import_module(module), call)"
         "(*map(json.loads, args))))")
if sys.argv[0] != "-c":  # not a timing child (CHILD)
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np


def main(doc: str, instances: dict, measure, describe, out: str) -> int:
    """Parse the command line, measure(name, args) each chosen instance, print
    its line and write the report to --out (default: out in the checkout).

    describe(name, record) returns the record's printed line and, when the
    record holds an "against" record, the lead of that one's line, else None."""
    ap = argparse.ArgumentParser(description=doc,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=15, help="timed runs per child")
    ap.add_argument("--rounds", type=int, default=1, help="timing children per checkout")
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="another checkout whose src/ is timed alternately with this one")
    ap.add_argument("--instances", nargs="+", choices=list(instances), default=list(instances))
    ap.add_argument("--out", default=str(ROOT / out))
    args = ap.parse_args()
    if args.reps < 1 or args.rounds < 1:
        ap.error("--reps and --rounds must be at least 1")
    if args.against and not (Path(args.against) / "src" / "ks2").is_dir():
        ap.error(f"--against {args.against}: no src/ks2 there")
    records = {}
    for name in args.instances:
        records[name] = r = measure(name, args)
        line, lead = describe(name, r)
        if lead is not None:
            a = r["against"]
            line += (f"; against {lead}, ratio {a['median_ratio']:.3f}, faster in"
                     f" {a['rounds_this_faster']} of {a['rounds']} rounds")
        print(line)
    report = {"instances": records, "machine": machine(), "peak_rss_mb": peak_rss_mb()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


def walls(run, reps: int) -> list:
    """Wall times of reps calls of run(), after one untimed call that pays the
    one-off costs, such as SciPy's load at the first shifted solve."""
    run()
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run()
        out.append(time.perf_counter() - t0)
    return out


@contextmanager
def counting(targets: list):
    """Rebind each (owner, attr, note) target to a wrapper that logs note(*args)
    per call; yield the logs, one list per target, and restore the originals."""
    real = [getattr(owner, attr) for owner, attr, _ in targets]
    logs = [[] for _ in targets]

    def wrap(fn, note, log):
        def counted(*args):
            log.append(note(*args))
            return fn(*args)
        return counted

    try:
        for (owner, attr, note), fn, log in zip(targets, real, logs):
            setattr(owner, attr, wrap(fn, note, log))
        yield logs
    finally:
        for (owner, attr, _), fn in zip(targets, real):
            setattr(owner, attr, fn)


def child(checkout, module: str, call: str, *args):
    """module.call(*args) run in a child process on checkout's src/."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(Path(checkout) / "src"), str(HERE),
                          module, call, *map(json.dumps, args)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def timed(module: str, name: str, args) -> tuple:
    """(summary, other) of instance name's wall times from module.wall_times:
    this checkout's summary, and with --against the other checkout's timings,
    the ratio of the medians and the rounds in which this one's was lower
    (else None)."""
    checkouts = [ROOT] + ([args.against] if args.against else [])
    rounds = [[] for _ in checkouts]
    for r in range(args.rounds):
        for side in range(len(checkouts))[::1 if r % 2 == 0 else -1]:
            rounds[side].append(child(checkouts[side], module, "wall_times", name, args.reps))
    this = summary(rounds[0])
    if not args.against:
        return this, None
    other = summary(rounds[1])
    faster = sum(np.median(a) < np.median(b) for a, b in zip(*rounds))
    return this, {"checkout": str(args.against), **other,
                  "median_ratio": this["wall_median_s"] / other["wall_median_s"],
                  "rounds_this_faster": int(faster), "rounds": len(rounds[0])}


def summary(rounds: list) -> dict:
    """Median, interquartile range and minimum of every wall time of every round."""
    walls = [w for r in rounds for w in r]
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return {"wall_median_s": median, "wall_iqr_s": q3 - q1, "wall_min_s": min(walls),
            "reps": len(walls)}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest timing child, in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
