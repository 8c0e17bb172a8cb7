"""Command-line front end.

Exit codes: 0 success, 1 computational failure, 2 argument errors.
All floats are printed with shortest round-trip formatting capped at 15
significant digits, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click
import numpy as np

from . import __version__, mellin, oracle, solver, verification
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import ExpwellError

__all__ = ["main", "fmt_float", "json_dumps"]


def fmt_float(x: float) -> str:
    """Shortest representation that round-trips, capped at 15 digits."""
    x = float(x)
    s = repr(x)
    mantissa = s.split("e")[0].split("E")[0]
    digits = [c for c in mantissa if c.isdigit()]
    while digits and digits[0] == "0":
        digits.pop(0)
    if len(digits) <= 15:
        return s
    return "%.15g" % x


def _json_value(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj:  # NaN is not valid JSON
            return "null"
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _json_value(v, indent + 1)
                           for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _json_value(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def json_dumps(obj) -> str:
    """Deterministic JSON: fixed indentation, floats via :func:`fmt_float`."""
    return _json_value(obj, 0) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if v != v:
            return ""
        return fmt_float(v)
    return str(v)


def csv_dumps(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
        click.echo(f"wrote {output}", err=True)
    else:
        click.echo(text, nl=False)


def _positive(name: str, value: float) -> float:
    if not value > 0.0:
        raise click.UsageError(
            f"physical parameter --{name} must be positive (got {value:g})")
    return value


def _build_params(v0, beta, mu, hbar) -> solver.PotentialParams:
    _positive("v0", v0)
    _positive("beta", beta)
    _positive("mu", mu)
    _positive("hbar", hbar)
    return solver.make_params(v0, beta, mu, hbar)


def _build_config(root_tol, energy_tol, grid_points, r_max,
                  beta) -> SolverConfig:
    kw = {}
    if root_tol is not None:
        kw["root_tol"] = root_tol
    if energy_tol is not None:
        kw["energy_tol"] = energy_tol
    if grid_points is not None:
        kw["numerov_points"] = grid_points
        kw["fd_points"] = 2 * (grid_points - 1) + 1
    if r_max is not None:
        kw["r_max_factor"] = r_max * beta
    return dataclasses.replace(DEFAULT_CONFIG, **kw)


def _potential_options(f):
    f = click.option("--hbar", type=float, default=1.0, show_default=True,
                     help="Reduced Planck constant.")(f)
    f = click.option("--mu", type=float, default=0.5, show_default=True,
                     help="Particle mass (default keeps 2*mu = 1).")(f)
    f = click.option("--beta", type=float, required=True,
                     help="Inverse range of the well, beta > 0.")(f)
    f = click.option("--v0", type=float, required=True,
                     help="Well depth V0 > 0.")(f)
    return f


def _output_options(f):
    f = click.option("--output", type=click.Path(dir_okay=False), default=None,
                     help="Write to this file instead of stdout.")(f)
    f = click.option("--format", "fmt",
                     type=click.Choice(["text", "json", "csv"]),
                     default="text", show_default=True)(f)
    return f


def _solver_options(f):
    f = click.option("--r-max", type=float, default=None,
                     help="Oracle grid extent (default 45/beta).")(f)
    f = click.option("--grid-points", type=int, default=None,
                     help="Oracle grid size (default 4501 Numerov, 9001 FD).")(f)
    f = click.option("--energy-tol", type=float, default=None,
                     help="Absolute tolerance for oracle energies: the "
                          "secant refinement of each level bracketed by "
                          "node counts stops at a step this small.")(f)
    f = click.option("--root-tol", type=float, default=None,
                     help="Absolute tolerance for Bessel-order zeros: Newton "
                          "refinement stops at a step this small.")(f)
    return f


@click.group()
@click.version_option(version=__version__, prog_name="expwell")
def main():
    """Bound states of the exponential well V(r) = -V0 exp(-beta r).

    The spectrum follows from the quantization condition J_nu(z0) = 0 with
    z0 = 2 gamma / beta, cross-checked against Numerov shooting and a
    finite-difference eigensolver.
    """


def _params_dict(p: solver.PotentialParams) -> dict:
    return {"v0": p.v0, "beta": p.beta, "mu": p.mu, "hbar": p.hbar,
            "gamma": p.gamma, "z0": p.z0}


_ORACLE_COLUMNS = (("energy_numerov", "Numerov"),
                   ("energy_fd", "finite differences"))


def _rel_dev(row: dict, key: str) -> float | None:
    """Relative deviation of an oracle energy from the analytic one."""
    if row[key] is None:
        return None
    return abs(row[key] - row["energy"]) / abs(row["energy"])


@main.command()
@_potential_options
@_solver_options
@_output_options
def spectrum(v0, beta, mu, hbar, root_tol, energy_tol, grid_points, r_max,
             fmt, output):
    """Compute the bound-state spectrum and oracle cross-checks."""
    p = _build_params(v0, beta, mu, hbar)
    cfg = _build_config(root_tol, energy_tol, grid_points, r_max, beta)
    try:
        result = solver.compute_spectrum(p, cfg)
        states = list(result.states)
        warnings = list(result.warnings)
        num = oracle.numerov_spectrum(p, cfg=cfg)
        fd = oracle.fd_spectrum(p, cfg=cfg)
    except ExpwellError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if len(num.energies) != len(states):
        warnings.append(f"Numerov found {len(num.energies)} states, "
                        f"analytic route found {len(states)}")
    if len(fd.energies) != len(states):
        warnings.append(f"finite differences found {len(fd.energies)} states, "
                        f"analytic route found {len(states)}")

    rows = []
    for i, s in enumerate(states):  # states ascend in energy, as do oracles
        e_num = num.energies[i] if i < len(num.energies) else None
        e_fd = fd.energies[i] if i < len(fd.energies) else None
        rows.append({"n": s.n, "nu": s.nu, "alpha": s.alpha,
                     "energy": s.energy, "energy_numerov": e_num,
                     "energy_fd": e_fd})
    for key, name in _ORACLE_COLUMNS:
        for row in rows:
            dev = _rel_dev(row, key)
            if dev is not None and dev > verification.SPECTRUM_REL_TOL:
                warnings.append(f"{name} level n={row['n']} deviates from "
                                f"the analytic energy by {dev:.2e} (relative)")

    if fmt == "json":
        _emit(json_dumps({"params": _params_dict(p), "states": rows,
                          "warnings": warnings}), output)
        return
    if fmt == "csv":
        header = ["n", "nu", "alpha", "energy", "energy_numerov", "energy_fd",
                  "rel_dev_numerov", "rel_dev_fd"]
        body = []
        for row in rows:
            devs = [_rel_dev(row, k) for k, _ in _ORACLE_COLUMNS]
            body.append([row["n"], row["nu"], row["alpha"], row["energy"],
                         row["energy_numerov"], row["energy_fd"], *devs])
        _emit(csv_dumps(header, body), output)
        return

    lines = [f"exponential well: V0={fmt_float(p.v0)} beta={fmt_float(p.beta)} "
             f"mu={fmt_float(p.mu)} hbar={fmt_float(p.hbar)}",
             f"gamma={fmt_float(p.gamma)} z0={fmt_float(p.z0)}"]
    if not rows:
        lines.append("no bound states (z0 below the first zero of J_0)")
    else:
        lines.append(f"{len(rows)} bound state(s):")
        lines.append("  n          nu              alpha           energy"
                     "            E_numerov         E_fd        rel.dev(num)"
                     "  rel.dev(fd)")
        for row in rows:
            devs = ["-" if d is None else f"{d:.2e}"
                    for d in (_rel_dev(row, k) for k, _ in _ORACLE_COLUMNS)]
            cells = [fmt_float(row[k]) if row[k] is not None else "-"
                     for k in ("nu", "alpha", "energy", "energy_numerov",
                               "energy_fd")]
            lines.append(f"  {row['n']}  " + "  ".join(f"{c:>16s}"
                                                       for c in cells)
                         + f"  {devs[0]:>11s}  {devs[1]:>11s}")
    for w in warnings:
        lines.append(f"warning: {w}")
    _emit("\n".join(lines) + "\n", output)


@main.command()
@_potential_options
@_output_options
@click.option("--root-tol", type=float, default=None,
              help="Absolute tolerance for Bessel-order zeros: Newton "
                   "refinement stops at a step this small.")
@click.option("--points", type=int, default=501, show_default=True,
              help="Number of radial samples.")
@click.option("--r-max", "table_r_max", type=float, default=None,
              help="Largest radius tabulated (default 20/beta).")
@click.option("--state", "state_index", type=int, default=0, show_default=True,
              help="State index n (0 = most bound).")
def wavefunction(v0, beta, mu, hbar, root_tol, points, table_r_max,
                 state_index, fmt, output):
    """Tabulate the normalized u(r) (and R = u/r) of one bound state."""
    p = _build_params(v0, beta, mu, hbar)
    cfg = _build_config(root_tol, None, None, None, beta)
    if points < 2:
        raise click.UsageError("--points must be at least 2")
    try:
        states = solver.spectrum(p, cfg)
    except ExpwellError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if not states:
        raise click.UsageError(
            f"no bound states for these parameters (z0={p.z0:g})")
    if not 0 <= state_index < len(states):
        raise click.UsageError(
            f"--state must be in 0..{len(states) - 1} "
            f"({len(states)} bound states)")
    rmax = table_r_max if table_r_max is not None else 20.0 / beta
    if rmax <= 0.0:
        raise click.UsageError("--r-max must be positive")
    try:
        s = solver.normalize(p, states[state_index], cfg)
        grid = np.linspace(0.0, rmax, points)
        table = solver.wavefunction_table(p, s, grid, cfg)
    except ExpwellError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    if fmt == "json":
        R = [None if rv != rv else float(rv) for rv in table.R_values]
        _emit(json_dumps({
            "params": _params_dict(p),
            "state": {"n": s.n, "nu": s.nu, "alpha": s.alpha,
                      "energy": s.energy, "norm_c": s.norm_c},
            "table": {"r": [float(v) for v in table.r_grid],
                      "u": [float(v) for v in table.u_values],
                      "R": R}}), output)
        return
    rows = [[float(r), float(u), (None if rv != rv else float(rv))]
            for r, u, rv in zip(table.r_grid, table.u_values, table.R_values)]
    if fmt == "csv":
        _emit(csv_dumps(["r", "u", "R"], rows), output)
        return
    lines = [f"state n={s.n}: nu={fmt_float(s.nu)} alpha={fmt_float(s.alpha)} "
             f"energy={fmt_float(s.energy)} norm_c={fmt_float(s.norm_c)}",
             f"{'r':>18s} {'u':>18s} {'R':>18s}"]
    for r, u, rv in rows:
        rcell = "-" if rv is None else fmt_float(rv)
        lines.append(f"{fmt_float(r):>18s} {fmt_float(u):>18s} {rcell:>18s}")
    _emit("\n".join(lines) + "\n", output)


@main.command("mellin-check")
@click.option("--rho", type=float, default=None,
              help="Check this rho = alpha/beta directly.")
@click.option("--v0", type=float, default=None,
              help="Well depth; with --beta, checks every bound state.")
@click.option("--beta", type=float, default=None,
              help="Inverse range of the well.")
@click.option("--y-min", type=float, default=0.0, show_default=True)
@click.option("--y-max", type=float, default=3.0, show_default=True)
@click.option("--y-steps", type=int, default=13, show_default=True)
@_output_options
def mellin_check(rho, v0, beta, y_min, y_max, y_steps, fmt, output):
    """Tabulate both closed Mellin forms over a y grid and their difference.

    Compares the Gamma-ratio solution of the difference equation (with
    g0 = 1/rho) against the Bessel-transform form with a = 2, nu = 2 rho.
    """
    if y_steps < 2:
        raise click.UsageError("--y-steps must be at least 2")
    if rho is None and (v0 is None or beta is None):
        raise click.UsageError("give either --rho or both --v0 and --beta")
    rhos: list[tuple[str, float]] = []
    if rho is not None:
        if rho <= 0.0:
            raise click.UsageError("--rho must be positive")
        rhos.append(("explicit", rho))
    else:
        p = _build_params(v0, beta, 0.5, 1.0)
        try:
            states = solver.spectrum(p)
        except ExpwellError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        if not states:
            _emit("no bound states: nothing to check\n"
                  if fmt == "text" else json_dumps({"tables": []}), output)
            return
        rhos = [(f"state n={s.n}", s.alpha / p.beta) for s in states]

    y_grid = np.linspace(y_min, y_max, y_steps)
    tables = []
    try:
        for label, r in rhos:
            a, nu, g0 = mellin.match_parameters(r)
            rows = [{"y": lhs.y, "difference_form": lhs.value,
                     "bessel_form": rhs.value,
                     "abs_diff": abs(lhs.value - rhs.value)}
                    for lhs, rhs in mellin.matching_table(r, y_grid)]
            tables.append({"source": label, "rho": r, "a": a, "nu": nu,
                           "g0": g0, "rows": rows})
    except ExpwellError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)

    if fmt == "json":
        _emit(json_dumps({"tables": tables}), output)
        return
    if fmt == "csv":
        header = ["source", "rho", "y", "difference_form", "bessel_form",
                  "abs_diff"]
        body = [[t["source"], t["rho"], row["y"], row["difference_form"],
                 row["bessel_form"], row["abs_diff"]]
                for t in tables for row in t["rows"]]
        _emit(csv_dumps(header, body), output)
        return
    lines = []
    for t in tables:
        lines.append(f"{t['source']}: rho={fmt_float(t['rho'])} -> a=2, "
                     f"nu={fmt_float(t['nu'])}, g0={fmt_float(t['g0'])}")
        lines.append(f"  {'y':>10s} {'difference eq.':>22s} "
                     f"{'Bessel transform':>22s} {'abs diff':>12s}")
        for row in t["rows"]:
            lines.append(f"  {fmt_float(row['y']):>10s} "
                         f"{fmt_float(row['difference_form']):>22s} "
                         f"{fmt_float(row['bessel_form']):>22s} "
                         f"{row['abs_diff']:>12.3e}")
    _emit("\n".join(lines) + "\n", output)


@main.command()
@click.option("--quick", is_flag=True,
              help="Reduced parameter sets (same tolerances).")
def verify(quick):
    """Run the full cross-validation suite; exit 1 if any check fails."""
    click.echo("configuration defaults:")
    for name, value in DEFAULT_CONFIG.describe():
        click.echo(f"  {name} = {value}")
    qc = mellin.DEFAULT_QUADRATURE
    click.echo("  quadrature = " + " ".join(
        f"{f.name}={getattr(qc, f.name)!r}" for f in dataclasses.fields(qc)))
    click.echo(f"checks ({'quick' if quick else 'full'} suite):")
    results = verification.run_all(quick=quick)
    for res in results:
        click.echo(res.line())
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
