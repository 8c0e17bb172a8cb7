"""Seeded case lists for the three workloads, with their reference values.

Each case is a dict with ``input`` (everything the program is given) and
``ref`` (the independent expectation from :mod:`reference`).  Only
``input`` enters the digest printed as provenance.

Well depths are drawn as z0 = 2 gamma / beta.  The spectrum depends on z0
alone, and so does most of a case's cost.  The z0 come from a scrambled
van der Corput sequence (Owen's nested scrambling, base 2) in antithetic
pairs u, 1 - u: the first 2^(k+1) points of a stream fall two in each
1/2^k slice of (0, 1), each uniform inside its slice.  A run that stops
after a time budget therefore measures the same mix of shallow and deep
wells on every seed, which is what keeps its medians steady, while each z0
is still uniform on its range.

The timed cases stay where the program is known to give right answers:
no timed case may fail.  A z0 range is therefore a union of intervals
that leaves out the depths at which a known defect of ``checks`` strikes
(a state of order below a floor, too many levels, too deep a well), and
u is spread over it by length.  The known defects are measured instead
on the fixed cases of :func:`probe`, once per run, outside the timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np

import checks
import reference as ref

Z0_MAX = 60.0
STRATA_BITS = 7

# Sizes of the generated lists.  A run that outlasts its list starts it
# again; the program keeps no cache, so a repeated input costs what it cost
# the first time.
LIST_SIZES = {"analytic-sweep": 160, "mellin-pairs": 96, "cli-mixed": 40}

# A timed run ends on a whole round: whole antithetic pairs, and for
# analytic-sweep whole groups of three regular and one threshold case, for
# cli-mixed two 1:2:2 blocks (one spectrum pair).  The mix measured then
# does not depend on where the time budget ran out.
ROUNDS = {"analytic-sweep": 8, "mellin-pairs": 2, "cli-mixed": 10}

# The timed cases keep a margin from each known defect.
NU_FLOOR = 1.2 * checks.SCAN_START_NU
DEEPEST_Z0 = checks.RESIDUAL_Z0
# Spectrum requests also run the oracles: every order at least BOX_NU, at
# most FD_LEVELS levels, and no level near the Numerov hang.
SPECTRUM_Z0 = ref.J0_ZEROS[checks.FD_LEVELS] - 0.01
SPECTRUM_ABS_E = 0.5 * checks.NUMEROV_HANG_ABS_E


def _depths(z_max: float, nu_floor: float, z_min: float = 0.0) -> list:
    """The z0 in (z_min, z_max] whose states all have nu >= nu_floor.

    The state that binds at j_{0,k} has an order below nu_floor until z0
    reaches j_{nu_floor,k}; those depths are left out.
    """
    starts = [0.0, *ref.bessel_zeros(nu_floor, z_max)]
    ends = [*ref.bessel_zeros(0.0, z_max), z_max]
    spans = [(max(a, z_min), min(b, z_max)) for a, b in zip(starts, ends)]
    return [(a, b) for a, b in spans if b > a]


def _depth_at(spans: list, u: float) -> float:
    """The point a fraction u of the way along ``spans``, by length."""
    x = u * sum(b - a for a, b in spans)
    for a, b in spans:
        if x <= b - a:
            return a + x
        x -= b - a
    return spans[-1][1]


WELLS = _depths(DEEPEST_Z0, NU_FLOOR)
STATE_WELLS = _depths(DEEPEST_Z0, NU_FLOOR, z_min=ref.J0_ZEROS[0])
SPECTRUM_WELLS = _depths(SPECTRUM_Z0, checks.BOX_NU)
# Where the shallowest state has order exactly NU_FLOOR.
THRESHOLDS = ref.bessel_zeros(NU_FLOOR, DEEPEST_Z0 / 1.01)


class _Strata:
    """Scrambled van der Corput points in antithetic pairs, one stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        # One random flip per node of the binary tree of dyadic slices.
        self.flips = rng.getrandbits(2 << STRATA_BITS)
        self._points: list[float] = []

    def next(self) -> float:
        """The stream's next point in (0, 1).

        Points come in antithetic pairs: point 2i is point i of the
        scrambled sequence and point 2i+1 its mirror image 1 - x, so every
        even-length run from the start is symmetric about the middle.
        """
        j = len(self._points)
        if j % 2:
            x = 1.0 - self._points[-1]
        else:
            node = cell = 0
            for level in range(STRATA_BITS):
                bit = (((j // 2) >> level) & 1) ^ ((self.flips >> node) & 1)
                cell = (cell << 1) | bit
                node = 2 * node + 1 + bit
            u = (self.rng.getrandbits(52) + 0.5) / (1 << 52)  # strictly inside
            x = (cell + u) / (1 << STRATA_BITS)
        self._points.append(x)
        return x


class _Sampler:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")

    def strata(self) -> _Strata:
        return _Strata(self.rng)

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def well(self, z0: float) -> dict:
        """Physical inputs with the given z0; beta, mu and hbar vary."""
        beta = self.log_uniform(0.25, 4.0)
        mu = self.log_uniform(0.1, 10.0)
        hbar = self.log_uniform(0.5, 2.0)
        v0 = (z0 * beta * hbar / 2.0) ** 2 / (2.0 * mu)
        return {"v0": v0, "beta": beta, "mu": mu, "hbar": hbar}


def _well_ref(w: dict) -> dict:
    z0 = ref.well_z0(w["v0"], w["beta"], w["mu"], w["hbar"])
    nus = ref.nu_zeros(z0)
    return {"z0": z0, "nus": nus,
            "energies": sorted(ref.energy(nu, w["beta"], w["mu"], w["hbar"])
                               for nu in nus)}


def _well_case(w: dict, r: dict, state: int | None) -> dict:
    """An analytic-sweep case: the well, and the state to normalize."""
    if state is not None:
        w["state"] = state
        _state_ref(r, state, w["beta"])
    return {"input": w, "ref": r}


def _analytic(s: _Sampler, n: int) -> list[dict]:
    cases = []
    z0s = s.strata()
    # Thresholds in antithetic pairs k, K + 1 - k (an odd K leaves a middle
    # one paired with itself), pairs shuffled: j0,k is near pi (k - 1/4), so
    # every pair has about the same mean depth, as the regular wells do.
    nk = len(THRESHOLDS)
    pairs = [(k, nk + 1 - k) for k in range(1, (nk + 1) // 2 + 1)]
    s.rng.shuffle(pairs)
    ks = [k for pair in pairs for k in pair]
    for i in range(n):
        if i % 4 == 3:
            # Just above the k-th threshold the program resolves: the
            # shallowest state is barely bound, with nu a little above
            # NU_FLOOR.
            k = ks[(i // 4) % len(ks)]
            delta = 10.0 ** s.rng.uniform(-8.0, -2.0)
            w = s.well(THRESHOLDS[k - 1] * (1.0 + delta))
        else:
            w = s.well(_depth_at(WELLS, z0s.next()))
        r = _well_ref(w)
        state = s.rng.randrange(len(r["nus"])) if r["nus"] else None
        cases.append(_well_case(w, r, state))
    return cases


def _table_grid(beta: float):
    """The radial grid of a wavefunction table: the CLI's default one."""
    return np.linspace(0.0, 20.0 / beta, 501)


def _state_ref(r: dict, state: int, beta: float) -> None:
    """Norm and tabulated u(r) of state n = ``state`` (most bound is 0)."""
    nu = sorted(r["nus"], reverse=True)[state]
    r["norm_c"] = 1.0 / math.sqrt(ref.norm_integral(nu, r["z0"], beta))
    r["u"] = ref.wavefunction(nu, r["z0"], beta, r["norm_c"],
                              _table_grid(beta)).tolist()


def _mellin_case(nu: float, y: float) -> dict:
    return {"input": {"nu": nu, "y": y, "t_max": 60.0},
            "ref": {"bessel": ref.mellin_bessel_sqrt(nu, y),
                    "gamma": ref.gamma(y)}}


def _mellin(s: _Sampler, n: int) -> list[dict]:
    cases = []
    ys = s.strata()
    for _ in range(n):
        y = 0.05 + 0.6 * ys.next()
        # nu = 2 rho of a bound state of a seeded well, capped at 20, and
        # outside the orders that t_max = 60 cannot reach at this y.
        while True:
            nus = [nu for nu in ref.nu_zeros(Z0_MAX * s.rng.random())
                   if nu <= 20.0 and not checks.mellin_known(nu, y)]
            if nus:
                break
        cases.append(_mellin_case(s.rng.choice(nus), y))
    return cases


def _cli_case(cmd: str, w: dict, r: dict, state: int | None = None) -> dict:
    if cmd == "spectrum":
        argv = ["spectrum", *_well_args(w), "--format", "json"]
    elif cmd == "wavefunction":
        _state_ref(r, state, w["beta"])
        argv = ["wavefunction", *_well_args(w), "--state", str(state),
                "--format", "csv"]
        w = dict(w, state=state)
    else:
        argv = ["mellin-check", "--v0", repr(w["v0"]), "--beta",
                repr(w["beta"]), "--format", "json"]
    return {"input": {"command": cmd, "argv": argv, **w}, "ref": r}


def _mellin_check_well(z0: float, beta: float) -> dict:
    """mellin-check takes no --mu/--hbar: it uses 2 mu = hbar = 1."""
    return {"v0": (z0 * beta / 2.0) ** 2, "beta": beta, "mu": 0.5, "hbar": 1.0}


def _cli(s: _Sampler, n: int) -> list[dict]:
    cases = []
    # Each command has its own stream, so each command's wells are stratified.
    fracs = {cmd: s.strata() for cmd in ("spectrum", "wavefunction", "mellin-check")}
    while len(cases) < n:
        block = ["spectrum", "wavefunction", "wavefunction",
                 "mellin-check", "mellin-check"]
        s.rng.shuffle(block)
        for cmd in block:
            frac = fracs[cmd].next()
            state = None
            if cmd == "spectrum":
                z0 = _depth_at(SPECTRUM_WELLS, frac)
                while True:  # mu, hbar and beta set the energy scale
                    w = s.well(z0)
                    r = _well_ref(w)
                    if all(abs(e) < SPECTRUM_ABS_E for e in r["energies"]):
                        break
            elif cmd == "wavefunction":
                w = s.well(_depth_at(STATE_WELLS, frac))
                r = _well_ref(w)
                state = s.rng.randrange(len(r["nus"]))
            else:
                w = _mellin_check_well(_depth_at(WELLS, frac),
                                       s.log_uniform(0.25, 4.0))
                r = _well_ref(w)
            cases.append(_cli_case(cmd, w, r, state))
    return cases[:n]


def _well_args(w: dict) -> list[str]:
    return ["--v0", repr(w["v0"]), "--beta", repr(w["beta"]),
            "--mu", repr(w["mu"]), "--hbar", repr(w["hbar"])]


_GENERATORS = {"analytic-sweep": _analytic, "mellin-pairs": _mellin,
             "cli-mixed": _cli}
WORKLOADS = tuple(_GENERATORS)


def build(workload: str, seed: int) -> list[dict]:
    """The seeded case list of one workload, references attached."""
    return _GENERATORS[workload](_Sampler(workload, seed), LIST_SIZES[workload])


# A well with z0 = 59.76 and its state n = 16 (nu = 4.66), whose
# |J_nu(z0)| in the program's own bessel_j is 2e-8, so normalize's
# 1e-8 re-check raises.
_DEEP_WELL = {"v0": 892.8144, "beta": 1.0, "mu": 0.5, "hbar": 1.0}
_DEEP_STATE = 16


def probe(workload: str) -> list[dict]:
    """Fixed cases on the known defects that the workload's path reaches.

    They are the same on every run and run once, untimed, after the timed
    passes.  Each should fail as ``checks.known_defects`` predicts; a
    probe case that fails otherwise makes the run incorrect.  The Numerov
    hang is left out: it costs a 30 s timeout.
    """
    if workload == "mellin-pairs":
        return [_mellin_case(nu, y)
                for nu, y in ((19.9, 0.25), (17.0, 0.65), (0.1, 0.05))]
    s = _Sampler("probe", 0)
    j0 = ref.J0_ZEROS
    deep = dict(_DEEP_WELL)
    deep_ref = _well_ref(deep)
    if workload == "analytic-sweep":
        cases = []
        for z0 in (j0[0] * (1.0 + 1e-6), j0[11] * (1.0 + 1e-4)):
            w = s.well(z0)
            r = _well_ref(w)
            cases.append(_well_case(w, r, len(r["nus"]) - 1))  # the missed one
        return cases + [_well_case(deep, deep_ref, _DEEP_STATE)]
    wells = [("spectrum", {"v0": 50.0, "beta": 0.5, "mu": 1.0, "hbar": 1.0}),
             ("spectrum", s.well(j0[2] * (1.0 + 1e-3))),
             ("mellin-check", _mellin_check_well(j0[4] * (1.0 + 1e-5), 1.0))]
    return ([_cli_case(cmd, w, _well_ref(w)) for cmd, w in wells]
            + [_cli_case("wavefunction", deep, deep_ref, _DEEP_STATE)])


def digest(cases: list[dict]) -> str:
    """sha256 of the program-visible inputs, in order."""
    blob = json.dumps([c["input"] for c in cases], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
