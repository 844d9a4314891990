"""Pre-asymptotic scattered flux on a finite-distance detector sphere.

The package evaluates multichannel scattering observables measured on a
sphere of finite radius rather than in the far-field limit: exact
per-mode radial factors built from terminating exponential-polynomial
solutions, the finite Laurent expansion of their pairwise overlaps,
inverse-distance corrections to the differential flux, and the identities
(flux conservation, unitarity, optical theorem) that survive at any
detector distance.

The package is pure Python on NumPy; SciPy is needed only by
``integral_representation_check`` and the tests.  The pointwise flux
contracts at degree level, since the pair factors depend only on the two
degrees: one blocked product, ``flux._flux_rows``, serves both the exact
flux and its distance expansion.
"""

from __future__ import annotations

from .amplitudes import (
    Channel,
    ChannelSet,
    PartialWaveAmplitude,
    SMatrixModel,
    amplitudes_from_smatrix,
    apply_angular_operator,
    evaluate,
    h_coefficient,
    hard_sphere_model,
    random_unitary_smatrix,
    scattered_wave,
    scattered_wave_series,
    smatrix_amplitude_family,
)
from .flux import (
    CrossSections,
    FluxProfile,
    cross_sections,
    differential_flux_asymptotic,
    differential_flux_exact,
    far_field_flux,
    flux_correction_term,
    flux_profile,
    optical_theorem_defect,
    total_flux,
    unitarity_defect,
)
from .greens import (
    GreensQuery,
    auto_l_max,
    greens_asymptotic,
    greens_multipole,
    greens_point,
)
from .io import (
    AmplitudeDataError,
    ConfigError,
    DEFAULT_TOLERANCES,
    RunConfig,
    load_amplitude,
    load_config,
    resolve_amplitude,
    save_amplitude,
)
from .special import (
    AngularGrid,
    FluxDomainError,
    angles_from_unit,
    chi,
    chi_coefficient,
    gauss_legendre_sphere,
    mode_index,
    mode_list,
    regular_psi,
    sph_harm,
    unit_from_angles,
    ylm_directions,
    ylm_table,
)
from .wronskian import (
    WronskianSeries,
    half_wronskian_exact,
    integral_representation_check,
    laurent_coefficients,
    pair_matrix,
    wronskian_series,
)

__version__ = "1.0.0"

__all__ = [
    "AmplitudeDataError",
    "AngularGrid",
    "Channel",
    "ChannelSet",
    "ConfigError",
    "CrossSections",
    "DEFAULT_TOLERANCES",
    "FluxDomainError",
    "FluxProfile",
    "GreensQuery",
    "PartialWaveAmplitude",
    "RunConfig",
    "SMatrixModel",
    "WronskianSeries",
    "amplitudes_from_smatrix",
    "angles_from_unit",
    "apply_angular_operator",
    "auto_l_max",
    "chi",
    "chi_coefficient",
    "cross_sections",
    "differential_flux_asymptotic",
    "differential_flux_exact",
    "evaluate",
    "far_field_flux",
    "flux_correction_term",
    "flux_profile",
    "gauss_legendre_sphere",
    "greens_asymptotic",
    "greens_multipole",
    "greens_point",
    "h_coefficient",
    "half_wronskian_exact",
    "hard_sphere_model",
    "integral_representation_check",
    "laurent_coefficients",
    "load_amplitude",
    "load_config",
    "mode_index",
    "mode_list",
    "optical_theorem_defect",
    "pair_matrix",
    "random_unitary_smatrix",
    "regular_psi",
    "resolve_amplitude",
    "save_amplitude",
    "scattered_wave",
    "scattered_wave_series",
    "smatrix_amplitude_family",
    "sph_harm",
    "total_flux",
    "unit_from_angles",
    "unitarity_defect",
    "wronskian_series",
    "ylm_directions",
    "ylm_table",
]
