"""Two dipole-coupled rigid rotors driven by pulsed laser fields.

Modules: units (laboratory <-> reduced units), angular and operators
(basis and sparse Hamiltonian pieces), propagation, entanglement,
observables, config, runner, sweep, output, and the `sim` cli.
"""

__version__ = "0.1.0"
