"""The timed closed loop, set-up probes and host-speed scaling.

The benchmark was tuned on a shared VM whose speed drifts by up to half,
in phases that last from seconds to many minutes.  The timings of a pass
are therefore scaled to a nominal host speed by a yardstick: fixed work,
timed after every timed item.  The yardsticks run none of the program's
code, so a change to the program moves the scaled times exactly as it
moves the wall times.

There are two yardsticks, because the host's CPU speed and the speed at
which it starts interpreters and imports modules drift apart:

* the CPU kernel: a pure-Python loop and a few numpy array passes, the two
  kinds of work the program does.  It runs after every in-process case,
  and its median over the pass scales the case times.
* ``import numpy``: a fresh interpreter running ``import numpy``.  It runs
  after every set-up probe and every CLI request, and scales that one
  item.  Over ten 15 s windows, a fresh ``import expwell`` over it varied
  by ±3% where the wall time varied by ±7% and its ratio to the CPU kernel
  by ±9%.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere, set before numpy loads.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Cases that run past this are stopped and fail as "timeout".  The longest
# healthy case takes about 5 s.
CASE_TIMEOUT_S = 30.0

# A timed pass also ends once its wall time, stopped cases included, exceeds
# its budget by this much: one stopped case still leaves the full budget for
# timed work, and a program that hangs on every case still ends in time.
PASS_SLACK_S = CASE_TIMEOUT_S + 10.0

# Fresh-interpreter imports per untraced pass, spread evenly over it.
SETUP_PROBES = 7

_KERNEL_ARRAY = np.arange(30000.0)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    # Children cache bytecode, as an installed package does, so set-up
    # time does not depend on whether the caller disabled the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _fresh_interpreter(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = perf_counter()
    r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                       capture_output=True, timeout=CASE_TIMEOUT_S)
    wall = perf_counter() - t0
    if r.returncode != 0:
        raise RuntimeError(f"{code} failed:\n" + r.stderr.decode(errors="replace"))
    return wall


def _cpu_kernel() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    a = _KERNEL_ARRAY
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def setup_probe() -> float:
    """Wall time of a fresh interpreter running ``import expwell``."""
    return _fresh_interpreter("import expwell")


# The yardsticks' wall times at the nominal host speed: about their medians
# on the 2-vCPU VM the benchmark was tuned on.
CPU_KERNEL_NOMINAL_S = 5.0e-3
IMPORT_NUMPY_NOMINAL_S = 0.2


def _import_numpy() -> float:
    return _fresh_interpreter("import numpy")


def closed_loop(attempt, seconds: float, round_size: int,
                probes: int = 0, interpreters: bool = False) -> dict:
    """Run ``attempt(i)`` for i = 0, 1, ... one at a time.

    ``attempt(i)`` runs case i and returns its wall time and whether the
    case was stopped.  A stopped case is a failure, not a timing: how long
    it would have run is unknown, and the limit is this benchmark's.  The
    loop runs until the timed cases add up to ``seconds`` at the nominal
    host speed (as far as the pass has measured it), then on to the end of
    the current round of ``round_size`` cases.  The mix measured then
    depends neither on where the budget ran out nor on the host's speed.
    Stopped cases add no timed work, so the loop also ends once the wall
    time spent passes ``seconds + PASS_SLACK_S``.  ``probes`` set-up probes run
    between cases, spread evenly over the timed work.

    In-process cases are scaled by the median CPU kernel of the pass.  With
    ``interpreters``, each case starts a fresh interpreter, as a set-up
    probe does; each of these is scaled by the ``import numpy`` run right
    after it.  Interpreter start and import time jump from one run to the
    next on a shared host, and the two track each other: over 30 adjacent
    pairs their correlation was 0.82, and the ratio spread by 0.11 of its
    median where ``import expwell`` alone spread by 0.48.

    Returns the case and set-up times scaled to the nominal host speed,
    the median scale factor of each, the wall time of the timed cases and
    the number of cases attempted.
    """
    if probes:
        setup_probe()  # may compile bytecode; users pay that once
    marks, factors = [], []
    walls, setup, setup_factors = [], [], []
    busy = spent = 0.0
    i = 0

    def probe():
        setup.append(setup_probe())
        setup_factors.append(IMPORT_NUMPY_NOMINAL_S / _import_numpy())

    while spent < seconds + PASS_SLACK_S and (busy < seconds or i % round_size):
        if len(setup) < probes and busy >= len(setup) * seconds / probes:
            probe()
        wall, stopped = attempt(i)
        if interpreters:
            factor = IMPORT_NUMPY_NOMINAL_S / _import_numpy()
        else:
            marks.append(_cpu_kernel())
            factor = CPU_KERNEL_NOMINAL_S / statistics.median(marks)
        i += 1
        spent += wall
        if not stopped:
            walls.append(wall)
            factors.append(factor)
            busy += wall * factor
    while len(setup) < probes:  # a pass cut short by stopped cases
        probe()
    if not interpreters and marks:  # the pass's median, for every case
        factors = [CPU_KERNEL_NOMINAL_S / statistics.median(marks)] * len(walls)
    return {"times": [w * f for w, f in zip(walls, factors)],
            "setup": [w * f for w, f in zip(setup, setup_factors)],
            "scale": statistics.median(factors) if factors else 1.0,
            "setup_scale": (statistics.median(setup_factors)
                            if setup_factors else 1.0),
            "wall_busy_s": sum(walls), "attempted": i}
