"""Symbolic-numeric engine for phase-space quantum mechanics of damped systems.

Represents functions in the closed class polynomial x exp(complex quadratic
form), computes the Moyal star product exactly on it, constructs stationary
eigenfunction families for the harmonic oscillator and two damped models,
and verifies the algebraic identities they satisfy.
"""

from .algebra import QGFunction, QGTerm, QuadExponent, VarSpace, gaussian_test, poisson_bracket
from .gausspoly import GaussianCompositionSingular, NonIntegrable
from .models import (ModelId, UnsupportedPair, WaveFunction, conjugation_by_V, dho_f, dho_g,
                     eigenvalue, hamiltonian, hyperbolic_frame_matrix, koopman_apply,
                     ladder_set, lift_dynamics, oscillator_wigner, oscillator_wigner_ladder,
                     spectrum, toy_resonant, toy_resonant_ladder, wigner_pair_transform)
from .poly import Poly
from .star import (EvolutionSingular, OracleNeedsDamping, OracleNotConverged, classical_flow_matrix,
                   damped_pair, evolve, moyal_bracket, quadrature_star_oracle, star,
                   star_exp_closed, star_exp_closed_taylor, star_exp_series)
from .verify import (CHECK_REGISTRY, CheckEntry, VerificationReport, run_all)

__version__ = "0.1.0"

__all__ = [
    "CHECK_REGISTRY", "CheckEntry", "EvolutionSingular", "GaussianCompositionSingular",
    "ModelId", "NonIntegrable", "OracleNeedsDamping", "OracleNotConverged", "Poly", "QGFunction",
    "QGTerm", "QuadExponent", "UnsupportedPair",
    "VarSpace", "VerificationReport", "WaveFunction", "classical_flow_matrix",
    "conjugation_by_V", "damped_pair", "dho_f", "dho_g", "eigenvalue", "evolve", "gaussian_test",
    "hamiltonian", "hyperbolic_frame_matrix", "koopman_apply", "ladder_set",
    "lift_dynamics", "moyal_bracket", "oscillator_wigner", "oscillator_wigner_ladder",
    "poisson_bracket", "quadrature_star_oracle", "run_all", "spectrum", "star",
    "star_exp_closed", "star_exp_closed_taylor", "star_exp_series",
    "toy_resonant", "toy_resonant_ladder", "wigner_pair_transform",
]
