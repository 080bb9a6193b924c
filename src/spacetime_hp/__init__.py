"""Space-time Galerkin solver for parabolic problems: temporal hp-FEM
stabilized by a modified Hilbert transform, tensorized with spatial P1 FEM.

The modules are imported by name: `spacetime_hp.cli` runs the convergence
studies, and the other modules hold the layers it calls."""

__version__ = "0.1.0"
