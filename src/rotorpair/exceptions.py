"""Error taxonomy shared across the package.

The CLI maps these to process exit codes: configuration and query
problems exit with 2, numerical failures with 3, I/O failures with 4.
"""


class SimulationError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidConfigError(SimulationError):
    """A configuration value or combination of values is unusable. Raised by config (RunConfig, SweepSpec, presets),
    by sweep for SIM_THREADS, by cli for two plots of one name, by output's CSV reader and by run_schedule."""


class QueryError(SimulationError):
    """A lookup asked for something outside the configured basis or data."""


class ConsistencyError(SimulationError):
    """H0 or V leaks out of the symmetric sector when folded, H0 or V is complex,
    the Hamiltonian pieces differ in dimension, H0 or V has an entry across the
    parity blocks, or a one-rotor step pair moves m1 + m2."""


class NumericalError(SimulationError):
    """A numerical routine failed or produced unusable output."""


class StepSizeError(NumericalError):
    """Norm drift beyond tolerance, or stage sweeps that did not converge: both
    ask for a smaller integration step. A diverged (inf or NaN) state raises it
    too, with "the state diverged": no step size fixes that."""
