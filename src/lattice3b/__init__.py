"""Spectral analysis of a three-particle lattice model with non-local pair
potentials: channel threshold analysis, eigenvalue counting below the essential
spectrum, and the Efimov accumulation coefficient."""

from .efimov import (EfimovParams, ModeTable, asymptotic_slope,
                     count_sphere_operator, efimov_params, legendre_mode,
                     mode_table, sobolev_finite, ucoef)
from .errors import (DegenerateCouplingError, DegenerateModelError,
                     ExpansionMismatchError, HypothesisViolationError,
                     InsufficientDataError, InvalidResolutionError,
                     InvalidSpectralPointError, ModelDataError,
                     NotProductFormError, OutOfDomainError, ResourceCapError,
                     ToolkitError)
from .grids import TorusGrid, build_grid
from .model import (CndReport, Dispersion, FormFactor, HessianData, ModelSpec,
                    PairEnergy, builtin_dispersion, builtin_epsilon,
                    builtin_model, check_conditionally_negative_definite,
                    const_form_factor, cos_axis_form_factor,
                    custom_pair_energy, extrema, form_factor,
                    hessian_at_minimum, make_model, pair_energy_sum,
                    sin_axis_form_factor, tabulated_dispersion)
from .reports import CountReport, CurveReport, EssentialSpectrumReport, write_report
from .threebody import (count_eigenvalues_below, count_report,
                        essential_spectrum, hs_diagnostics, lambda_on_grid,
                        trust_floor)
from .twobody import (ChannelRange, ExpansionFit, ThresholdClass,
                      channel_eigenvalue, channel_range, classify_threshold,
                      coupling_threshold, delta_at_threshold_bounds,
                      expansion_fit, expansion_slope_extrapolated,
                      fredholm_det, lambda_integral, resonance_function_norm)

__version__ = "0.1.0"
