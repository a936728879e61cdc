"""bridgepot: a numerical laboratory for sharp heat-kernel comparability.

Library layout:

    kernels      scalar kernels (heat, bridge, comparison, drifted-time) and
                 the semi-infinite integrals with their explicit constants
    potentials   closed-form potential algebra with JSON round-trip
    functionals  integral transforms, bridge functionals, norms
    search       supremum search: coarse grid plus multistart simplex
    feynman_kac  Brownian-bridge Monte Carlo oracles
    verify       named verification suites with JSON reports
    cli          the ``bridgepot`` command
"""

from .errors import BridgepotError, ComputationError, DimensionError, GeometryError
from .feynman_kac import McConfig, McEstimate, g_ratio_mc, s_mc, sample_bridge
from .functionals import (
    BridgeSpec,
    NormReport,
    build_compact_counterexample,
    gaussian_convolution,
    j_transform,
    k_norm,
    k_transform,
    n_functional,
    newton_norm,
    newton_potential,
    s_functional,
    s_norm,
    truncate_potential,
)
from .growth import GrowthDiagnosis, GrowthModel, Verdict, growth_diagnosis
from .kernels import (
    bridge_density,
    explicit_constant,
    f_estimate,
    f_integral,
    heat_kernel,
    i_app,
    j_kernel,
    j_kernel_direct,
    k0,
    kappa,
    newton_constant,
)
from .potentials import (
    BallIndicator,
    Constant,
    CounterexampleA,
    Dilate,
    Potential,
    RadialPower,
    Scale,
    SignClass,
    Sum,
    Symmetry,
    dilate,
    evaluate,
    evaluate_many,
    lp_halfd_norm,
    parse_potential,
    serialize_potential,
)
from .quadrature import Estimate, QuadratureSpec, Status
from .search import AxisSpec, SearchStrategy, SupResult, sup_search
from .verify import Finding, SuiteReport, run_suite

__version__ = "0.1.0"
