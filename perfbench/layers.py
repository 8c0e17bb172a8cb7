"""Spans around the calls into each layer, recorded from the benchmark side.

:func:`install` replaces every module-level binding of the wrapped public
functions inside the loaded ``expwell`` modules.  The modules import these
names directly (``expwell.solver.bessel_j``, ``expwell.mellin.gamma``, the
package namespace), so every binding is swapped, not only the original.
A span is ``(layer, kind, start, end, parent, case, n)``: ``kind``
separates the scalar and array paths of ``bessel_j``; ``n`` is the work
the call did as a count (array points, zeros or levels returned).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# Prefix of the stderr line on which a traced CLI child returns its spans.
SPANS_MARKER = "perfbench-spans "

# (module, function) -> layer name.  The closed Mellin forms share one layer.
TARGETS = {
    ("specfun", "gamma"): "specfun.gamma",
    ("specfun", "bessel_j"): "specfun.bessel_j",
    ("specfun", "find_nu_zeros"): "specfun.find_nu_zeros",
    ("solver", "compute_spectrum"): "solver.compute_spectrum",
    ("solver", "normalize"): "solver.normalize",
    ("solver", "wavefunction_table"): "solver.wavefunction_table",
    ("oracle", "numerov_spectrum"): "oracle.numerov_spectrum",
    ("oracle", "fd_spectrum"): "oracle.fd_spectrum",
    ("mellin", "mellin_numeric"): "mellin.mellin_numeric",
    ("mellin", "g_iterate"): "mellin.closed_forms",
    ("mellin", "g_closed"): "mellin.closed_forms",
    ("mellin", "mellin_bessel_closed"): "mellin.closed_forms",
    ("mellin", "mellin_bessel_sqrt"): "mellin.closed_forms",
    ("mellin", "match_parameters"): "mellin.closed_forms",
    ("mellin", "matching_table"): "mellin.closed_forms",
}


def _bessel_kind(args, kwargs):
    nu = kwargs.get("nu", args[0] if args else None)
    z = kwargs.get("z", args[1] if len(args) > 1 else None)
    if np.ndim(nu) == 0 and np.ndim(z) == 0:
        return "scalar", 1
    return "array", int(np.broadcast(np.asarray(nu), np.asarray(z)).size)


def _count_result(layer, result):
    if layer == "specfun.find_nu_zeros":
        return len(result.zeros)
    if layer.startswith("oracle."):
        return len(result.energies)
    return 0


class Tracer:
    """Spans of one process, kept in memory until :func:`write_spans`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.case = -1

    def start_case(self, case: int) -> None:
        """Spans from here on belong to ``case``, at top level."""
        self.case = case
        self._stack.clear()

    def wrap(self, layer: str, fn, measure=None):
        """``fn`` recording a span per call.

        ``measure(args, kwargs)`` gives ``(kind, n)`` before the call;
        without it, ``n`` is counted from the result.
        """
        spans, stack = self.spans, self._stack
        if measure is None and layer == "specfun.bessel_j":
            measure = _bessel_kind

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind, n = measure(args, kwargs) if measure else ("", 0)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            t0 = perf_counter()
            # Complete from the start, in case a stopped case never returns.
            spans.append((layer, kind, t0, t0, parent, self.case, n))
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if result is not None and not n:
                    n = _count_result(layer, result)
                spans[idx] = (layer, kind, t0, t1, parent, self.case, n)

        return traced


def write_spans(spans: list[tuple], path) -> None:
    """One tab-separated line per span: case, layer, kind, start, end, parent, n."""
    with open(path, "w") as fh:
        for layer, kind, t0, t1, parent, case, n in spans:
            fh.write(f"{case}\t{layer}\t{kind}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{n}\n")


def install(tracer: Tracer) -> None:
    """Swap every binding of the TARGETS functions for a traced wrapper."""
    import expwell  # noqa: F401  (loads every submodule)

    wrappers = {}
    for (mod, name), layer in TARGETS.items():
        fn = getattr(sys.modules[f"expwell.{mod}"], name)
        wrappers[id(fn)] = (fn, tracer.wrap(layer, fn))
    for modname, mod in list(sys.modules.items()):
        if modname != "expwell" and not modname.startswith("expwell."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


def _has_ancestor(spans, idx: int, layer: str) -> bool:
    p = spans[idx][4]
    while p >= 0:
        if spans[p][0] == layer:
            return True
        p = spans[p][4]
    return False


def aggregate(spans: list[tuple], busy_s: float, cases: list[dict],
              stopped: frozenset = frozenset()) -> dict:
    """Per-layer metrics from spans of one traced pass.

    ``time_s`` sums the outermost span of each layer (a recursive or
    nested call inside the same layer is not counted twice); ``self_s``
    subtracts the time covered by directly nested spans of any layer.
    Case ids index ``cases`` cyclically, as the timed loops do; their
    reference level counts are the base of ``level_recall``.  Spans of the
    ``stopped`` cases are left out, as their time is left out of ``busy_s``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    calls, time_s, self_s, work = {}, {}, {}, {}
    scalar_calls = array_calls = array_points = 0
    scalar_in_root_search = 0
    norm_points = 0
    level_ref = {"oracle.numerov_spectrum": 0, "oracle.fd_spectrum": 0}
    for i, (layer, kind, t0, t1, parent, case, n) in enumerate(spans):
        if case in stopped:
            continue
        dur = t1 - t0
        self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
        if _has_ancestor(spans, i, layer):
            continue
        calls[layer] = calls.get(layer, 0) + 1
        time_s[layer] = time_s.get(layer, 0.0) + dur
        work[layer] = work.get(layer, 0) + n
        if layer in level_ref:
            level_ref[layer] += len(cases[case % len(cases)]["ref"].get("nus", ()))
        if layer == "specfun.bessel_j":
            if kind == "scalar":
                scalar_calls += 1
                if _has_ancestor(spans, i, "specfun.find_nu_zeros"):
                    scalar_in_root_search += 1
            else:
                array_calls += 1
                array_points += n
                if _has_ancestor(spans, i, "solver.normalize"):
                    norm_points += n

    def t(layer):
        return time_s.get(layer, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    roots = work.get("specfun.find_nu_zeros", 0)
    m = {
        "specfun.find_nu_zeros.calls": calls.get("specfun.find_nu_zeros", 0),
        "specfun.find_nu_zeros.time_s": t("specfun.find_nu_zeros"),
        "specfun.find_nu_zeros.self_s": self_s.get("specfun.find_nu_zeros", 0.0),
        "specfun.bessel_j.calls_per_root": ratio(scalar_in_root_search, roots),
        "specfun.bessel_j.scalar_calls": scalar_calls,
        "specfun.bessel_j.array_calls": array_calls,
        "specfun.bessel_j.array_points": array_points,
        "specfun.bessel_j.time_s": t("specfun.bessel_j"),
        "specfun.gamma.calls": calls.get("specfun.gamma", 0),
        "specfun.gamma.time_s": t("specfun.gamma"),
        "solver.compute_spectrum.time_s": t("solver.compute_spectrum"),
        "solver.compute_spectrum.self_s": self_s.get("solver.compute_spectrum", 0.0),
        "solver.normalize.calls": calls.get("solver.normalize", 0),
        "solver.normalize.time_s": t("solver.normalize"),
        "solver.normalize.points_per_call": ratio(
            norm_points, calls.get("solver.normalize", 0)),
        "solver.wavefunction_table.time_s": t("solver.wavefunction_table"),
        "oracle.numerov_spectrum.time_s": t("oracle.numerov_spectrum"),
        "oracle.numerov_spectrum.ms_per_level": ratio(
            1e3 * t("oracle.numerov_spectrum"), work.get("oracle.numerov_spectrum", 0)),
        "oracle.numerov_spectrum.level_recall": ratio(
            work.get("oracle.numerov_spectrum", 0), level_ref["oracle.numerov_spectrum"]),
        "oracle.fd_spectrum.time_s": t("oracle.fd_spectrum"),
        "oracle.fd_spectrum.level_recall": ratio(
            work.get("oracle.fd_spectrum", 0), level_ref["oracle.fd_spectrum"]),
        "mellin.mellin_numeric.calls": calls.get("mellin.mellin_numeric", 0),
        "mellin.mellin_numeric.time_s": t("mellin.mellin_numeric"),
        "mellin.mellin_numeric.self_s": self_s.get("mellin.mellin_numeric", 0.0),
        "mellin.mellin_numeric.integrand_points": work.get("mellin.integrand", 0),
        "mellin.closed_forms.time_s": t("mellin.closed_forms"),
    }
    for key in [k for k in m if k.endswith(("time_s", "self_s"))]:
        m[key[:-2] + "_share"] = 100.0 * ratio(m[key], busy_s)
    return m
