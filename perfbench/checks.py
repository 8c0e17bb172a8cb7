"""Comparison of program outputs with the reference, and the failure ledger.

Tolerances are the repository's stated accuracy claims: equal state
counts, energies within 1e-5 relative (the spectrum cross-validation
gate), norms within 1e-6 relative, Bessel Mellin pairs within 1e-6
absolute and Gamma pairs within 1e-10 absolute.  A case fails if any
check fails; it is listed under every reason that applies.
"""

from __future__ import annotations

import math

ENERGY_REL_TOL = 1e-5
NORM_REL_TOL = 1e-6
BESSEL_PAIR_ABS_TOL = 1e-6
GAMMA_PAIR_ABS_TOL = 1e-10
CLOSED_FORM_REL_TOL = 1e-10

REASONS = ("missed_state", "count_mismatch_numerov", "count_mismatch_fd",
           "energy_dev", "norm_dev", "mellin_dev", "exception", "nonzero_exit",
           "timeout")


class Ledger:
    """Failed-case counts by reason, worst-case accuracy diagnostics, and
    the failures that no known defect explains."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_reason = dict.fromkeys(REASONS, 0)
        self.worst = {"max_nu_abs_err": 0.0, "max_energy_rel_dev": 0.0,
                      "max_norm_rel_err": 0.0, "max_mellin_abs_err": 0.0}
        self.unexplained = 0
        self.errors: list[str] = []

    def note(self, key: str, value: float) -> None:
        if not math.isfinite(value):
            value = math.inf
        self.worst[key] = max(self.worst[key], value)

    def note_error(self, case: int, msg: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"case {case}: {msg}")

    def record(self, case: int, reasons: set[str], known: set[str]) -> None:
        """Case ``case`` failed for ``reasons``; ``known`` are the reasons
        its inputs are expected to produce (see :func:`known_defects`)."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            for r in reasons:
                self.by_reason[r] += 1
        new = reasons - known
        if new:
            self.unexplained += 1
            self.note_error(case, "unexplained " + ", ".join(sorted(new)))

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "by_reason": self.by_reason, "worst": self.worst,
                "unexplained": self.unexplained, "errors": self.errors}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def analytic_states(led: Ledger, ref: dict, nus: list[float]) -> set[str]:
    """Analytic orders (any order) against the reference zeros."""
    want = sorted(ref["nus"], reverse=True)
    got = sorted(nus, reverse=True)
    reasons = set()
    if len(got) < len(want):
        reasons.add("missed_state")
    elif len(got) > len(want):
        reasons.add("energy_dev")  # a state the reference does not have
    for g, w in zip(got, want):
        led.note("max_nu_abs_err", abs(g - w))
        # E is proportional to nu^2, so this is the energy's relative error.
        dev = abs(g * g - w * w) / (w * w)
        led.note("max_energy_rel_dev", dev)
        if not dev <= ENERGY_REL_TOL:
            reasons.add("energy_dev")
    return reasons


def oracle_levels(led: Ledger, ref: dict, energies: list[float],
                  count_reason: str, count: int | None = None) -> set[str]:
    """Oracle energies (ascending) against the reference, level by level.

    ``count`` is the number of levels the oracle found, when it reported
    more than it returned.
    """
    want = ref["energies"]
    reasons = set()
    if (len(energies) if count is None else count) != len(want):
        reasons.add(count_reason)
    for g, w in zip(energies, want):
        dev = _rel(g, w)
        led.note("max_energy_rel_dev", dev)
        if not dev <= ENERGY_REL_TOL:
            reasons.add("energy_dev")
    return reasons


def norm(led: Ledger, norm_c: float, want: float) -> set[str]:
    err = _rel(norm_c, want)
    led.note("max_norm_rel_err", err)
    return set() if err <= NORM_REL_TOL else {"norm_dev"}


def wavefunction(led: Ledger, u: list[float], u_ref: list[float]) -> set[str]:
    """Sampled u(r) against the reference, relative to its peak."""
    scale = max(abs(v) for v in u_ref)
    err = max(abs(a - b) for a, b in zip(u, u_ref)) / scale
    led.note("max_norm_rel_err", err)
    if len(u) != len(u_ref) or not err <= NORM_REL_TOL:
        return {"norm_dev"}
    return set()


def mellin_pair(led: Ledger, value: float, want: float, tol: float) -> set[str]:
    err = abs(value - want)
    led.note("max_mellin_abs_err", err)
    return set() if err <= tol else {"mellin_dev"}


def closed_form(led: Ledger, value: float, want: float) -> set[str]:
    """A Gamma-ratio closed form, relative to max(|want|, 1)."""
    err = abs(value - want) / max(abs(want), 1.0)
    led.note("max_mellin_abs_err", err)
    return set() if err <= CLOSED_FORM_REL_TOL else {"mellin_dev"}


# Known defects of the program when this benchmark was written.  Each is
# predicted from a case's inputs and reference alone.  The timed cases are
# drawn outside them (cases.py); the probe cases (cases.probe) sit inside,
# and a probe failure no prediction covers makes the run incorrect.  The
# bounds were mapped on generated cases and parameter scans, with a margin.

# find_nu_zeros scans nu from its bracket step, 0.05, so a state with a
# smaller nu is missed.
SCAN_START_NU = 0.05
# normalize re-checks |J_nu(z0)| <= 1e-8 with the program's own bessel_j,
# whose error nears 1e-8 as z0 nears 60: it raises for some states of wells
# with z0 >= 59.7.
RESIDUAL_Z0 = 58.5
# fd_spectrum returns at most its k = 10 lowest levels.
FD_LEVELS = 10
# Both oracles integrate on r in [0, 45/beta].  A level with nu below about
# 0.33 decays too slowly to fit, and shifts or vanishes.
BOX_NU = 0.5
# numerov_spectrum bisects each root to an absolute 1e-11, which is finer
# than the spacing of doubles once |E| >= 2^16, so it never returns there.
NUMEROV_HANG_ABS_E = 0.999 * 2.0 ** 16


def mellin_known(nu: float, y: float) -> bool:
    """mellin_numeric with t_max = 60 misses 1e-6: for large orders, from
    nu = 15.8 at y = 0.65 and nu = 19.5 at y = 0.25, and for tiny orders
    at the small-y end (nu < 0.13 at y = 0.05)."""
    return nu > 18.0 or (nu > 15.0 and y > 0.4) or (nu < 0.25 and y < 0.12)


def known_defects(workload: str, case: dict) -> set[str]:
    """Failure reasons the known defects predict for this case."""
    inp, ref = case["input"], case["ref"]
    if workload == "mellin-pairs":
        return {"mellin_dev"} if mellin_known(inp["nu"], inp["y"]) else set()
    nus = sorted(ref["nus"], reverse=True)
    missed = bool(nus) and nus[-1] < SCAN_START_NU
    deep = ref["z0"] > RESIDUAL_Z0
    cmd = inp.get("command")
    if cmd == "wavefunction":
        # Asking for a missed state, or failing the re-check, exits 1.
        return ({"nonzero_exit"} if deep or nus[inp["state"]] < SCAN_START_NU
                else set())
    known = {"missed_state"} if missed else set()
    if workload == "analytic-sweep" and deep:
        known.add("exception")
    if cmd == "spectrum":
        if len(nus) > FD_LEVELS:
            known.add("count_mismatch_fd")
        if nus and nus[-1] < BOX_NU:
            known |= {"count_mismatch_numerov", "count_mismatch_fd", "energy_dev"}
        if any(abs(e) >= NUMEROV_HANG_ABS_E for e in ref["energies"]):
            known.add("timeout")
    return known
