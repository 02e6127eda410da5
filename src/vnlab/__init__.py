"""vnlab: quantum and classical probe-coupling measurement models, side by side.

An impulsive coupling writes a system observable onto a probe's position; the
probe's initial spread makes the readout fuzzy and its momentum spread kicks
the system back. The package evolves both the quantum (density operator,
Wigner function) and classical (phase-space density) descriptions of that
process with matched conventions, so their structural correspondences can be
checked numerically.
"""

__version__ = "0.1.0"

from .errors import ConfigInvalid, InvariantViolation, VnLabError
from .grids import Grid1D, PeriodicGrid
from .observables import (
    ClassicalObservable,
    CouplingParams,
    ProbeSpec,
    SpectralObservable,
    action_observable,
    general_observable,
    position_observable,
)
from .states import (
    AngleActionDensity,
    DensityOperator,
    PhaseSpaceDensity,
    build_gaussian_phase_density,
    expectation,
    from_angle_action,
    gaussian_wavepacket,
    to_angle_action,
    trace_with,
)

__all__ = [name for name in dir() if not name.startswith("_")]
