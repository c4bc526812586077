"""Moment, tail, isoperimetric and hypercontractive bounds for low-degree
polynomials on the Boolean cube.

The package has three layers:

- exact combinatorics: Krawchouk polynomial tables, Boolean-cube transforms,
  distance distributions (krawchouk, cube);
- bivariate exponent functions: the per-coordinate base-2 exponents r, I, tau,
  h, psi, pi, alpha, phi, eta that govern the bounds (bivariate), and the
  bound evaluators built from them (bounds);
- verification: the induction machinery behind the moment bound (induction),
  search/sweep suites that compare bounds against exact brute force (verify),
  and a CLI front end (cli).

All exponents are base-2 and normalized per dimension n unless a docstring
says otherwise.
"""

__version__ = "0.1.0"

from .bivariate import (
    PsiEval,
    alpha_and_xstar,
    eta,
    eta_p,
    exponent_I,
    phi,
    pi_fn,
    psi,
    ratio_r,
    tau,
    tilde_phi,
)
from .bounds import (
    BoundReport,
    edge_iso_bound,
    hypercontractive_bound,
    moment_bound,
    moment_gap,
    projection_bound,
    set_noise_bound,
    support_projection_bound,
    tail_bound,
    ue_exponent,
)
from .cube import (
    CubeFunction,
    CubeSubset,
    SymmetricProfile,
    apply_noise,
    distance_distribution,
    inner_product,
    lp_norm,
    random_homogeneous,
    spectral_project,
    sphere_indicator,
    tensor_power,
    to_fourier,
    to_points,
    undetected_error_probability,
    wht,
)
from .induction import (
    InductionParams,
    big_P,
    cap_F,
    hanner_gap_kraw,
    induction_params,
    recursion_residual,
)
from .krawchouk import (
    kraw_eval_real,
    kraw_moments,
    kraw_roots,
    kraw_table,
    l2_between_roots,
    lp_concentration,
)
from .numerics import (
    InputError,
    InternalError,
    binary_entropy,
    exact_binomial,
    inverse_entropy,
    log2_binomial,
    log_sum_exp2,
)
from .verify import (
    SuiteConfig,
    SuiteReport,
    all_suite_tags,
    degree_at_most_check,
    identity_sweep,
    run_suite,
    search_extremal_ratio,
    tightness_sweep,
)

__all__ = [
    "BoundReport",
    "CubeFunction",
    "CubeSubset",
    "InductionParams",
    "InputError",
    "InternalError",
    "PsiEval",
    "SuiteConfig",
    "SuiteReport",
    "SymmetricProfile",
    "__version__",
    "all_suite_tags",
    "alpha_and_xstar",
    "apply_noise",
    "big_P",
    "binary_entropy",
    "cap_F",
    "degree_at_most_check",
    "distance_distribution",
    "edge_iso_bound",
    "eta",
    "eta_p",
    "exact_binomial",
    "exponent_I",
    "hanner_gap_kraw",
    "hypercontractive_bound",
    "identity_sweep",
    "induction_params",
    "inner_product",
    "inverse_entropy",
    "kraw_eval_real",
    "kraw_moments",
    "kraw_roots",
    "kraw_table",
    "l2_between_roots",
    "log2_binomial",
    "log_sum_exp2",
    "lp_concentration",
    "lp_norm",
    "moment_bound",
    "moment_gap",
    "phi",
    "pi_fn",
    "projection_bound",
    "psi",
    "random_homogeneous",
    "ratio_r",
    "recursion_residual",
    "run_suite",
    "search_extremal_ratio",
    "set_noise_bound",
    "spectral_project",
    "sphere_indicator",
    "support_projection_bound",
    "tail_bound",
    "tau",
    "tensor_power",
    "tightness_sweep",
    "tilde_phi",
    "to_fourier",
    "to_points",
    "ue_exponent",
    "undetected_error_probability",
    "wht",
]
