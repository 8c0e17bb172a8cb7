"""Shared solver configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and discretization knobs shared across the library.

    Attributes
    ----------
    root_tol : float
        Absolute tolerance for zeros in nu: Newton refinement stops at a
        step this small, and zeros within it of nu = 0 are the
        non-normalizable threshold state.
    residual_tol : float
        Largest |J_nu(z0)| accepted for a quantized state.
    energy_tol : float
        Absolute tolerance for oracle eigenvalues: the secant refinement
        of each count-bracketed level stops at a step this small.
    r_max_factor : float
        Default radial extent of oracle grids, in units of 1/beta.
    numerov_points : int
        Default grid size for the Numerov oracle (before refinement).
    fd_points : int
        Default grid size for the finite-difference oracle.
    """

    root_tol: float = 1e-12
    residual_tol: float = 1e-8
    energy_tol: float = 1e-11
    r_max_factor: float = 45.0
    numerov_points: int = 4501
    fd_points: int = 9001

    def __post_init__(self):
        if self.root_tol <= 0 or self.energy_tol <= 0:
            raise ValueError("tolerances must be positive")

    def describe(self) -> list[tuple[str, object]]:
        """(name, value) pairs of every knob, for reproducibility dumps."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


DEFAULT_CONFIG = SolverConfig()
