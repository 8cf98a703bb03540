"""Exact-lattice Gaussian chains and the two q-oscillator eigenfunction
families built from them, with circle-integral and weighted-family
counterparts and a verification harness."""

from .context import QContext
from .qnum import arik_coon_eigenvalue, macfarlane_eigenvalue, qpochhammer
from .chain import (DaughterChain, Family, GaussianChain, LadderOperator, add,
                    alpha, apply_ladder, arik_lower, arik_raise,
                    build_by_raising, coeff_distance, evaluate, inner,
                    ladder_residuals, mac_lower, mac_raise, mul_qlinear,
                    overlap_scale, product_daughters,
                    relative_coeff_distance, scale, shift)
from .report import GramReport
from .quad import integrate_real_line
from .dg import (DG, SWPolynomial, build_Phi, build_phi, daughter_sum_rules,
                 dg_norm, gram_phi, harmonic_limit_scan, stieltjes_wigert,
                 sw_orthogonality, sw_bridge_residual)
from .macfarlane import (MAC, MacCoefficients, build_Bn, indefinite_gram,
                         mac_coeffs, number_operator_check)
from .circle import (ThetaEvaluator, circle_gram_dg, circle_gram_mac,
                     parseval_bridge, poisson_check, theta3)
from .weights import (PeriodicWeight, WeightedChain, alpha_w, build_An,
                      cosine_weight, gamma_family_gram, mixed_weighted_inner,
                      orthonormal_weight_family)
from .verify import SUITES, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "QContext",
    "arik_coon_eigenvalue", "macfarlane_eigenvalue", "qpochhammer",
    "DaughterChain", "Family", "GaussianChain", "LadderOperator",
    "add", "alpha", "apply_ladder", "arik_lower", "arik_raise",
    "build_by_raising", "coeff_distance", "evaluate", "inner",
    "ladder_residuals", "mac_lower", "mac_raise",
    "mul_qlinear", "overlap_scale", "product_daughters",
    "relative_coeff_distance", "scale", "shift",
    "GramReport",
    "integrate_real_line",
    "DG", "SWPolynomial", "build_Phi", "build_phi", "daughter_sum_rules",
    "dg_norm", "gram_phi", "harmonic_limit_scan", "stieltjes_wigert",
    "sw_orthogonality", "sw_bridge_residual",
    "MAC", "MacCoefficients", "build_Bn", "indefinite_gram", "mac_coeffs",
    "number_operator_check",
    "ThetaEvaluator", "circle_gram_dg", "circle_gram_mac",
    "parseval_bridge", "poisson_check", "theta3",
    "PeriodicWeight", "WeightedChain", "alpha_w", "build_An",
    "cosine_weight", "gamma_family_gram", "mixed_weighted_inner",
    "orthonormal_weight_family",
    "SUITES", "SuiteResult", "run_suite",
    "__version__",
]
