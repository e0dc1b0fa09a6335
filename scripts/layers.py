"""Shared timing harness of the layer scripts (oracle_layers.py, solver_layers.py).

Wall times are taken in child processes, one per instance and checkout in
turn: for each instance, every round runs one child per checkout, the order
reversing from round to round, so a checkout compared against this one
(``--against``) is timed seconds apart and under the same outside load.  A
child puts its checkout's ``src/`` first on ``sys.path``, imports the layer
script as a module (which then leaves ``sys.path`` alone), calls one of its
functions with JSON arguments and prints the JSON result: the wall times of
``reps`` calls from the script's ``wall_times(name, reps)``, or whatever
else the script asks of the other checkout.
"""
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = ("import importlib, json, sys; src, here, module, call, *args = sys.argv[1:]; "
         "sys.path[:0] = [src, here]; "
         "print(json.dumps(getattr(importlib.import_module(module), call)"
         "(*map(json.loads, args))))")


def child(checkout, module: str, call: str, *args):
    """module.call(*args) run in a child process on checkout's src/."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(Path(checkout) / "src"), str(HERE),
                          module, call, *map(json.dumps, args)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def alternate(module: str, name: str, checkouts: list, reps: int, rounds: int) -> list:
    """Per checkout, the rounds' lists of reps wall times of instance `name`."""
    walls = [[] for _ in checkouts]
    for r in range(rounds):
        for side in range(len(checkouts))[::1 if r % 2 == 0 else -1]:
            walls[side].append(child(checkouts[side], module, "wall_times", name, reps))
    return walls


def summary(rounds: list) -> dict:
    """Median, interquartile range and minimum of every wall time of every round."""
    walls = [w for r in rounds for w in r]
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return {"wall_median_s": median, "wall_iqr_s": q3 - q1, "wall_min_s": min(walls),
            "reps": len(walls)}


def compare(this: list, other: list, checkout: str) -> dict:
    """The other checkout's timings, and the rounds in which this one's median was lower."""
    faster = sum(np.median(a) < np.median(b) for a, b in zip(this, other))
    out = summary(other)
    return {"checkout": str(checkout), **out,
            "median_ratio": summary(this)["wall_median_s"] / out["wall_median_s"],
            "rounds_this_faster": int(faster), "rounds": len(this)}


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
