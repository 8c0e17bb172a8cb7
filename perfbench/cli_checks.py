"""Checks of ``expwell`` command output against the reference."""

from __future__ import annotations

import json
import re

import checks
import reference


def _oracle_count(warnings: list[str], label: str, default: int) -> int:
    for w in warnings:
        m = re.match(rf"{label} found (\d+) states", w)
        if m:
            return int(m.group(1))
    return default


def _spectrum(led, ref, text):
    data = json.loads(text)
    rows = data["states"]
    reasons = checks.analytic_states(led, ref, [r["nu"] for r in rows])
    for key, label, reason in (("energy_numerov", "Numerov", "count_mismatch_numerov"),
                               ("energy_fd", "finite differences", "count_mismatch_fd")):
        energies = [r[key] for r in rows if r[key] is not None]
        count = _oracle_count(data["warnings"], label, len(rows))
        reasons |= checks.oracle_levels(led, ref, energies, reason, count)
    return reasons


def _wavefunction(led, ref, text):
    lines = text.strip().splitlines()
    if lines[0] != "r,u,R":
        return {"norm_dev"}
    u = [float(line.split(",")[1]) for line in lines[1:]]
    return checks.wavefunction(led, u, ref["u"])


def _mellin_check(led, ref, text):
    tables = json.loads(text)["tables"]
    reasons = checks.analytic_states(led, ref, [t["nu"] for t in tables])
    # The closed forms are checked at the order the command reports, so
    # an error in nu is counted once, by the state check above.
    for table in tables:
        for row in table["rows"]:
            w = reference.mellin_bessel_sqrt(table["nu"], row["y"])
            reasons |= checks.closed_form(led, row["difference_form"], w)
            reasons |= checks.closed_form(led, row["bessel_form"], w)
    return reasons


_CHECKS = {"spectrum": _spectrum, "wavefunction": _wavefunction,
           "mellin-check": _mellin_check}


def check(led: checks.Ledger, case: dict, stdout: str) -> set[str]:
    """Failure reasons of one successful (exit 0) request."""
    return _CHECKS[case["input"]["command"]](led, case["ref"], stdout)
