"""Worker process for the in-process workloads.

Reads one job as JSON on stdin, runs its cases closed loop (the next case
starts when the previous one has returned) until the timed case work adds
up to the requested seconds, checks every output against the reference
outside the timed region, and writes one JSON result line to stdout.  The
untraced pass also times the set-up probes.  With tracing, the traced pass
runs second, on the same cases, so the tracing overhead is the difference
of the two.  Last, the known-defect probe cases run once each, untimed.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from time import perf_counter

import timing  # noqa: I001  (pins BLAS threads before numpy loads)

import numpy as np

import expwell as ew

import checks
import layers


def _analytic(inp, integrand):
    p = ew.make_params(inp["v0"], inp["beta"], inp["mu"], inp["hbar"])
    states = ew.compute_spectrum(p).states
    out = {"nus": [s.nu for s in states]}
    # The requested state is absent when the route missed a state.
    if "state" in inp and inp["state"] < len(states):
        s = ew.normalize(p, states[inp["state"]])
        table = ew.wavefunction_table(p, s, np.linspace(0.0, 20.0 / p.beta, 501))
        out["norm_c"] = s.norm_c
        out["u"] = table.u_values
    return out


def _check_analytic(led, case, out):
    ref = case["ref"]
    reasons = checks.analytic_states(led, ref, out["nus"])
    if "norm_c" in out:
        reasons |= checks.norm(led, out["norm_c"], ref["norm_c"])
        reasons |= checks.wavefunction(led, out["u"].tolist(), ref["u"])
    return reasons


def _bessel_sqrt(nu):
    def f(x):
        return ew.bessel_j(nu, 2.0 * np.sqrt(x))
    return f


def _exp_neg(x):
    return np.exp(-x)


def _mellin(inp, integrand):
    nu, y = inp["nu"], inp["y"]
    cfg = ew.QuadratureConfig(t_max=inp["t_max"])
    rho = 0.5 * nu
    return {"bessel": ew.mellin_numeric(integrand(_bessel_sqrt(nu)), y, cfg).value,
            "gamma": ew.mellin_numeric(integrand(_exp_neg), y, cfg).value,
            "closed": [ew.mellin_bessel_sqrt(nu, 2.0, y),
                       ew.g_closed(rho, y, 1.0 / rho)],
            "gamma_closed": ew.gamma(y)}


def _check_mellin(led, case, out):
    ref = case["ref"]
    reasons = checks.mellin_pair(led, out["bessel"], ref["bessel"],
                                 checks.BESSEL_PAIR_ABS_TOL)
    reasons |= checks.mellin_pair(led, out["gamma"], ref["gamma"],
                                  checks.GAMMA_PAIR_ABS_TOL)
    for v in out["closed"]:
        reasons |= checks.closed_form(led, v, ref["bessel"])
    return reasons | checks.closed_form(led, out["gamma_closed"], ref["gamma"])


class CaseTimeout(Exception):
    """Raised into a case that ran past timing.CASE_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise CaseTimeout


WORKLOADS = {"analytic-sweep": (_analytic, _check_analytic),
             "mellin-pairs": (_mellin, _check_mellin)}


def _plain(f):
    return f


def attempt(workload, case, i, led, integrand=_plain):
    """Run and check case i once: (wall time of the call, whether stopped)."""
    run, check = WORKLOADS[workload]
    reasons = set()
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timing.CASE_TIMEOUT_S)
    try:
        out = run(case["input"], integrand)
    except CaseTimeout:
        reasons.add("timeout")
    except Exception as exc:  # a raising case is a failed case
        reasons.add("exception")
        led.note_error(i, f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    wall = perf_counter() - t0
    led.record(i, reasons or check(led, case, out),
               checks.known_defects(workload, case))
    return wall, "timeout" in reasons


def run_pass(workload, cases, seconds, round_size, tracer=None, probes=0):
    """One closed-loop pass over the cases (see timing.closed_loop)."""
    integrand = _plain
    if tracer is not None:
        def integrand(f):
            return tracer.wrap("mellin.integrand", f,
                               lambda a, k: ("", int(np.size(a[0]))))
    led = checks.Ledger()
    stopped = []

    def timed(i):
        if tracer is not None:
            tracer.start_case(i)
        wall, was_stopped = attempt(workload, cases[i % len(cases)], i, led,
                                    integrand)
        if was_stopped:
            stopped.append(i)
        return wall, was_stopped

    res = timing.closed_loop(timed, seconds, round_size, probes)
    res.update(ledger=led.as_dict(), stopped=stopped)
    return res


def run_probe(workload, cases):
    """The known-defect probe cases, each once, untimed (cases.probe)."""
    led = checks.Ledger()
    for i, case in enumerate(cases):
        attempt(workload, case, i, led)
    return led.as_dict()


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    job = json.load(sys.stdin)
    args = (job["workload"], job["cases"], job["seconds"], job["round"])
    result = {"untraced": run_pass(*args, probes=timing.SETUP_PROBES)}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job["trace"]:
        tracer = layers.Tracer()
        layers.install(tracer)
        traced = run_pass(*args, tracer=tracer)
        traced["layers"] = layers.aggregate(tracer.spans, traced["wall_busy_s"],
                                            job["cases"],
                                            frozenset(traced["stopped"]))
        layers.write_spans(tracer.spans, job["spans_path"])
        result["traced"] = traced
    result["probe"] = run_probe(job["workload"], job["probe"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
