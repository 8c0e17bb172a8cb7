"""Seeded end-to-end benchmark of expwell, with a separate traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload analytic-sweep --seed 1 --seconds 22 --trace 0

Workloads (rationale in ``perfbench/RATIONALE.md``):

* ``analytic-sweep``: compute_spectrum, normalize and a 501-point
  wavefunction_table per case; a quarter of the wells sit just above a
  binding threshold.
* ``mellin-pairs``: mellin_numeric on one Bessel and one Gamma pair per case.
* ``cli-mixed``: ``python -m expwell.cli`` subprocesses, spectrum /
  wavefunction / mellin-check in the ratio 1:2:2.

Every case runs closed loop, one at a time, from this single caller: the
in-process workloads in one worker process, the CLI workload as one
subprocess per request.  Each output is checked against an independent
scipy reference computed before the timed loop.  The timed cases avoid the
program's known defects; those are measured after the timed passes, on
fixed probe cases run once each, untimed.  Times are scaled to a
nominal host speed (see ``timing.py``).  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` an untraced and a
traced pass run back to back and it carries the per-layer metrics,
including the tracing overhead.  Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import timing  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NoReturn

import numpy as np

import cases as case_lists
import checks
import cli_checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = timing.ROOT
SRC = timing.SRC
OUT = HERE / "out"

IMPORTTIME_PROBES = 3
WORKER_TIMEOUT_S = 170.0


def spawn(argv: list[str], stdin: bytes | None = None,
          timeout: float = WORKER_TIMEOUT_S):
    """Run one child to completion: (exit code, stdout, stderr).

    A child that outlives ``timeout`` seconds is killed and reported with
    exit code ``-SIGKILL``.
    """
    try:
        r = subprocess.run(argv, cwd=ROOT, env=timing.child_env(), input=stdin,
                           capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return -signal.SIGKILL, exc.stdout or b"", exc.stderr or b""
    return r.returncode, r.stdout, r.stderr


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def measure_imports() -> dict:
    """import.* metrics from ``python -X importtime`` and sys.modules."""
    expwell_ms, scipy_ms, modules = [], [], []
    for _ in range(IMPORTTIME_PROBES):
        rc, out, err = spawn([sys.executable, "-X", "importtime", "-c",
                              "import sys, expwell; print(len(sys.modules))"])
        if rc != 0:
            fail("import expwell failed under -X importtime")
        # Lines come children first; read backwards, each line's parent is
        # the nearest earlier-read line indented one level less.
        scipy_us = 0
        stack: list[tuple[int, str]] = []
        for line in reversed(err.decode().splitlines()):
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
            if not m:
                continue
            level, name = len(m.group(2)) // 2, m.group(3)
            while stack and stack[-1][0] >= level:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            stack.append((level, name))
            if name.startswith("scipy") and not parent.startswith("scipy"):
                scipy_us += int(m.group(1))  # outermost scipy import, cumulative
            if name == "expwell" and level == 0:
                expwell_ms.append(int(m.group(1)) / 1e3)
        scipy_ms.append(scipy_us / 1e3)
        modules.append(int(out.decode().strip()))
    return {"import.expwell_ms": statistics.median(expwell_ms),
            "import.scipy_ms": statistics.median(scipy_ms),
            "import.modules": statistics.median(modules)}


# ------------------------------------------------------------ workloads

def run_worker(workload: str, cases: list, seconds: float, trace: bool,
               spans_path: Path) -> dict:
    job = {"workload": workload, "cases": cases, "seconds": seconds,
           "round": case_lists.ROUNDS[workload], "trace": trace,
           "spans_path": str(spans_path),
           "probe": case_lists.probe(workload)}
    rc, out, err = spawn([sys.executable, str(HERE / "worker.py")],
                         stdin=json.dumps(job).encode())
    if rc != 0:
        fail(f"worker exited {rc}:\n" + err.decode(errors="replace"))
    return json.loads(out.decode().strip().splitlines()[-1])


def cli_request(case: dict, i: int, led: checks.Ledger, traced: bool,
                spans: list) -> tuple[float, bool, bytes]:
    """Run and check one CLI request: (wall time, whether stopped, stdout).

    A traced request runs through ``cli_child.py``, which hands its spans
    back on stderr; their parent indices are shifted onto ``spans``.
    """
    inp = case["input"]
    if traced:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(i), *inp["argv"]]
    else:
        argv = [sys.executable, "-m", "expwell.cli", *inp["argv"]]
    t0 = perf_counter()
    rc, out, err = spawn(argv, timeout=timing.CASE_TIMEOUT_S)
    wall = perf_counter() - t0
    text = err.decode(errors="replace")
    if traced and layers.SPANS_MARKER in text:
        text, _, tail = text.rpartition(layers.SPANS_MARKER)
        base = len(spans)
        for s in json.loads(tail):
            parent = s[4] + base if s[4] >= 0 else -1
            spans.append((s[0], s[1], s[2], s[3], parent, s[5], s[6]))
    known = checks.known_defects("cli-mixed", case)
    if rc == -signal.SIGKILL:
        led.record(i, {"timeout"}, known)
        return wall, True, out
    if rc != 0:
        led.note_error(i, f"{inp['command']} exited {rc}: {text.strip()[-200:]}")
        led.record(i, {"nonzero_exit"}, known)
    else:
        led.record(i, cli_checks.check(led, case, out.decode()), known)
    return wall, False, out


def run_cli_pass(cases: list, seconds: float, traced: bool) -> dict:
    """One closed-loop pass of CLI subprocesses (see timing.closed_loop)."""
    led = checks.Ledger()
    per_cmd, out_bytes, spans = {}, [], []

    def attempt(i):
        case = cases[i % len(cases)]
        wall, stopped, out = cli_request(case, i, led, traced, spans)
        if not stopped:
            per_cmd.setdefault(case["input"]["command"], []).append(wall)
            out_bytes.append(len(out))
        return wall, stopped

    res = timing.closed_loop(attempt, seconds, case_lists.ROUNDS["cli-mixed"],
                             0 if traced else timing.SETUP_PROBES,
                             interpreters=True)
    res.update(ledger=led.as_dict(), per_cmd=per_cmd, out_bytes=out_bytes,
               spans=spans)
    return res


def run_cli_probe(cases: list) -> dict:
    """The known-defect probe requests, each once, untimed (cases.probe)."""
    led = checks.Ledger()
    for i, case in enumerate(cases):
        cli_request(case, i, led, False, [])
    return led.as_dict()


# -------------------------------------------------------------- metrics

def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, or the median.

    Below 20 samples no percentile above the median qualifies.
    """
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                           capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable (not a git checkout)"


def print_provenance(args, cases, digest) -> None:
    import scipy
    print(f"workload       {args.workload}")
    print(f"seed           {args.seed}")
    print(f"cases          {len(cases)} generated, inputs sha256 {digest}")
    print(f"python         {platform.python_version()}  numpy {np.__version__}"
          f"  scipy {scipy.__version__}")
    print(f"nproc          {os.cpu_count()} "
          f"(usable {len(os.sched_getaffinity(0))})")
    print(f"git commit     {git_commit()}")
    print(f"src sha256     {source_digest()}")
    print("thread pins    " + " ".join(f"{k}={v}" for k, v in timing.THREAD_PINS.items()))
    print(f"run            closed loop, 1 caller, {args.seconds:g} s of timed "
          f"case work per pass, trace={args.trace}")


def print_ledger(name: str, ledger: dict) -> None:
    n, f = ledger["attempted"], ledger["failed"]
    if name == "probe":
        print(f"[probe] known defects: {f} of {n} fixed probe cases failed, "
              f"untimed; {ledger['unexplained']} not as a known defect predicts")
    else:
        print(f"[{name}] fail_frac = {f / n:.4f} fraction ({f} of {n} cases "
              f"failed)")
    for reason, count in ledger["by_reason"].items():
        print(f"[{name}]   {reason:<24s} {count:4d} of {n}")
    for e in ledger["errors"]:
        print(f"[{name}]   first errors: {e}")


def end_to_end(args, untraced: dict, peak_kb: int, units: dict) -> dict:
    """The end-to-end metrics of the untraced pass, printed with their samples."""
    times = untraced["times"]
    n = len(times)
    if not n:
        print_ledger("untraced", untraced["ledger"])
        fail("no case completed")
    tp = tail_percentile(n)
    tail_note = (f"p{tp:.4g} of {n} cases" if n >= 20 else
                 f"p50 of {n} cases: under 20 samples no higher percentile "
                 f"has ten beyond it")
    busy = sum(times)
    metrics = {
        "throughput_cps": (n / busy, f"{n} cases in {busy:.2f} s busy, "
                                     f"{untraced['wall_busy_s']:.2f} s wall"),
        "case_p50_ms": (1e3 * statistics.median(times), f"{n} cases"),
        "case_tail_ms": (1e3 * float(np.percentile(times, tp)), tail_note),
        "setup_s": (statistics.median(untraced["setup"]),
                    f"median of {len(untraced['setup'])} fresh interpreters "
                    f"spread over the pass: "
                    + " ".join(f"{t:.3f}" for t in untraced["setup"])),
        "peak_rss_mb": (peak_kb / 1024.0,
                        "largest CLI subprocess" if args.workload == "cli-mixed"
                        else "worker process"),
    }
    print_ledger("untraced", untraced["ledger"])
    yardstick = "import numpy, median" if args.workload == "cli-mixed" else "cpu kernel"
    print(f"times below are scaled to the nominal host speed (timing.py): case "
          f"times by {untraced['scale']:.4f} ({yardstick}), set-up times by "
          f"{untraced['setup_scale']:.4f} (import numpy, median)")
    for name, (value, note) in metrics.items():
        print(f"{name:<16s} = {value:.6g} {units[name]}  ({note})")
    return {name: value for name, (value, _) in metrics.items()}


def per_layer(untraced: dict, traced: dict, untraced_cps: float) -> dict:
    """Per-layer metrics of the traced pass, plus import and CLI timings."""
    per = dict(traced["layers"])
    per.update(measure_imports())
    per_cmd = untraced.get("per_cmd", {})
    for cmd in ("spectrum", "wavefunction", "mellin-check"):
        walls = per_cmd.get(cmd)
        per[f"cli.{cmd.replace('-', '_')}.wall_ms"] = (
            1e3 * statistics.median(walls) if walls else 0.0)
    out_bytes = untraced.get("out_bytes")
    per["cli.stdout_bytes"] = statistics.mean(out_bytes) if out_bytes else 0.0
    per.update({f"accuracy.{k}": v for k, v in traced["ledger"]["worst"].items()})
    traced_cps = len(traced["times"]) / sum(traced["times"])
    per["trace.overhead_cps"] = traced_cps - untraced_cps
    print_ledger("traced", traced["ledger"])
    print(f"tracing overhead: traced {traced_cps:.6g} - untraced "
          f"{untraced_cps:.6g} = {per['trace.overhead_cps']:.6g} 1/s "
          f"({len(traced['times'])} traced cases)")
    return per


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=case_lists.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "expwell" / "__init__.py").is_file():
        fail(f"no expwell sources under {SRC}")

    cases = case_lists.build(args.workload, args.seed)
    print_provenance(args, cases, case_lists.digest(cases))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    spans_path.unlink(missing_ok=True)

    if args.workload == "cli-mixed":
        untraced = run_cli_pass(cases, args.seconds, traced=False)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        res = run_worker(args.workload, cases, args.seconds, bool(args.trace),
                         spans_path)
        untraced = res["untraced"]
        peak_kb = res["peak_rss_kb"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(args, untraced, peak_kb, units)
    passes = [untraced]
    metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    if args.trace:
        if args.workload == "cli-mixed":
            traced = run_cli_pass(cases, args.seconds, traced=True)
            traced["layers"] = layers.aggregate(traced["spans"],
                                                traced["wall_busy_s"], cases)
            layers.write_spans(traced["spans"], spans_path)
        else:
            traced = res["traced"]
        per = per_layer(untraced, traced, e2e["throughput_cps"])
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        for m in spec["per_layer"]:
            print(f"{m['name']:<44s} = {per[m['name']]:.6g} {m['unit']}")
        passes.append(traced)
        metrics = {m["name"]: per[m["name"]] for m in spec["per_layer"]}

    # The known defects, measured on the fixed probe cases.
    probe = (run_cli_probe(case_lists.probe(args.workload))
             if args.workload == "cli-mixed" else res["probe"])
    print_ledger("probe", probe)

    # correct: no timed case failed, and every probe case that failed did
    # so only as a known defect predicts from its inputs.
    failed = sum(p["ledger"]["failed"] for p in passes)
    print(f"timed cases failed: {failed}; probe cases failed otherwise than "
          f"predicted: {probe['unexplained']}")
    led = passes[-1]["ledger"]
    print(json.dumps({
        "correct": failed == 0 and probe["unexplained"] == 0,
        "attempted": led["attempted"], "failed": led["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
