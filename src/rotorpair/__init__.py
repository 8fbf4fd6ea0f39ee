"""Two dipole-coupled rigid rotors driven by pulsed laser fields.

Public surface: unit conversion, basis and operators, propagation,
entanglement analysis, observables, configuration, and the runner.
"""

from .angular import RotorState, TwoRotorBasis, costheta_element, l_squared_eigenvalue, sintheta_exp_element
from .config import RunConfig, SweepSpec, parse_config, parse_sweep, preset
from .entanglement import schmidt_rank, schmidt_spectrum, von_neumann_entropy
from .exceptions import (
    ConsistencyError,
    InvalidConfigError,
    NumericalError,
    QueryError,
    SimulationError,
    StepSizeError,
)
from .observables import (
    RegularityMetrics,
    TimeSeriesRecorder,
    orientation,
    population,
    regularity_metrics,
    rotational_energy,
)
from .operators import (
    Geometry,
    HamiltonianPieces,
    OperatorMatrix,
    PulseSchedule,
    build_costheta_single,
    build_dipole_term,
    build_orientation_coupling,
    build_pieces,
    build_rotor_term,
)
from .propagation import (
    FreeEvolution,
    IntegratorConfig,
    Trajectory,
    WaveFunction,
    default_total_time_ps,
    evolve_free,
    evolve_pulse_window,
    initial_state,
    pulse_windows,
    rk4_integrate,
    run_schedule,
)
from .runner import RunResult, run_config, simulate
from .units import (
    PhysicalConstants,
    PhysicalSetup,
    ReducedParameters,
    from_reduced,
    time_unit_seconds,
    to_reduced,
)

__version__ = "0.1.0"
