"""Classical kink and elliptic solutions of the GL, sine-Gordon and Nahm
scalar models, their diagonal resolvents, and one-loop quantum corrections
via generalized zeta functions."""

from . import bakerakhiezer, models, oracle, resolvent, specfun, zetareg
from .errors import (BranchCollisionError, ConvergenceError, DomainError,
                     EnergyDivergenceError, KinkZetaError, PoleError,
                     UnsupportedFamilyError, WronskianDegeneracyError)
from .models import (ClassicalSolution, Family, ModelSpec, SolutionKind,
                     classical_energy, closed_form_energy, energy_report,
                     kink_solution, nahm_solution, periodic_solution,
                     potential_v, schrodinger_potential)
from .resolvent import (CaseTag, ResolventPolynomial, build_resolvent,
                        hermit_residual, invert_laplace_gamma)
from .zetareg import (HeatTrace, ZetaEvaluation, derivative_at_zero,
                      erf_heat_trace, mellin_zeta, quantum_correction,
                      vacuum_heat_trace, zeta_contour, zeta_d_kink,
                      zeta_kink_1d, zeta_vacuum)

__version__ = "0.1.0"

__all__ = [
    "bakerakhiezer", "models", "oracle", "resolvent", "specfun", "zetareg",
    "KinkZetaError", "DomainError", "PoleError", "ConvergenceError",
    "BranchCollisionError", "UnsupportedFamilyError",
    "EnergyDivergenceError", "WronskianDegeneracyError",
    "Family", "SolutionKind", "ModelSpec", "ClassicalSolution",
    "potential_v", "kink_solution", "periodic_solution", "nahm_solution",
    "schrodinger_potential", "classical_energy", "closed_form_energy",
    "energy_report",
    "CaseTag", "ResolventPolynomial", "build_resolvent", "hermit_residual",
    "invert_laplace_gamma",
    "ZetaEvaluation", "HeatTrace", "zeta_vacuum", "zeta_kink_1d",
    "zeta_d_kink", "derivative_at_zero", "quantum_correction",
    "mellin_zeta", "zeta_contour", "erf_heat_trace", "vacuum_heat_trace",
]
