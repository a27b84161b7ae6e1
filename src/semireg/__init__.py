"""Numerical laboratory for the small-time regularity of matrix semigroups.

The package measures how the norm of f(T(t)) behaves as t drops to
zero, for polynomials f and semigroups T(t) = e^{tA} on weighted
sequence spaces, and compares the measurements against the criteria
that separate holomorphic, R-analytic, and merely bounded behaviour:
small-time profiles against the disc norm, sectorial resolvent
reports, randomized (Rademacher) bound estimates, cosine families with
the zero-two dichotomy, interpolation and extrapolation of norm
bounds, and Gaussian kernel dominations.
"""

from .errors import (BadParams, CoefficientOverflow, ConstantPolynomial,
                     ContourTooClose, DominationFailure, EnumerationTooLarge,
                     NotARoot, NumericalError, ParameterOutOfRange,
                     PeriodizationError, PhaseMismatch, QuadratureDivergence,
                     SeriesNotConverged, SpectrumHit, TailTooFat,
                     UnknownEntry, ValidationError)
from .spaces import GridSpace
from .linalg import (ContourSpec, OpNormResult, QuadResult, Segment,
                     contour_integral, mat_exp, op_norm, quad_strong_integral,
                     resolvent, spectral)
from .discpoly import (BoundCheck, DiscNormResult, Polynomial, bernstein_check,
                       coeff_sum_bound_check, disc_norm, eval_matrix,
                       factor_out_root, in_C1, normalize_peak, power_expand)
from .semigroup import (BeurlingProfile, GeneratorSpec, GrowthBound,
                        KatoIdentityResult,
                        SectorReport, beurling_profile, check_growth,
                        converse_profile, dichotomy_fit,
                        kato_resolvent_identity_check, log_time_grid,
                        mild_solution, poly_of_semigroup, sector_report)
from .rbound import (BTCheck, RBoundEstimate, RGridProfile, RSectorReport,
                     RadNorm, RademacherConfig, bt_contour_check,
                     kahane_contraction_check, r_beurling_profile,
                     r_converse_bound_eval, r_sector_report, rademacher_norm,
                     rbound_calculus_check, rbound_estimate,
                     sector_family_estimate, square_function_norm)
from .cosine import (CosineFamily, FattoriniReport, ZeroTwoReport,
                     cosine_from_generator, cosine_from_group,
                     dalembert_residual, fattorini_series, generator_residual,
                     laplace_transform_check, zero_two_polynomial_witness,
                     zero_two_profile)
from .interp import (ExtrapolationReport, InterpolationTriple, KernelSpec,
                     extrapolation_bench, gaussian_apply,
                     gaussian_estimate_check, gaussian_kernel,
                     gaussian_matrix, gaussian_square_function_bench,
                     kernel_mass_defect, lp_logconvexity_check,
                     maximal_domination_check, maximal_function,
                     riesz_thorin_check)
from . import zoo

__version__ = "0.1.0"
