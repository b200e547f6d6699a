"""Verification and fixed-point toolkit for partial metric type spaces."""

__version__ = "0.1.0"

from .errors import (
    CatalogError,
    ConstructionError,
    DomainError,
    GateError,
    InputError,
    OracleValueError,
    PmtkError,
    UsageError,
)
from .spaces import (
    Box,
    DistanceOracle,
    MapFamily,
    Point,
    Sampler,
    SelfMap,
    SpaceClass,
    SpaceDescriptor,
    build_oracle,
    eval_distance,
    lookup_oracle,
    load_space,
    register_oracle,
    save_space,
    self_distance,
    space_from_json,
    space_to_json,
)
from .axioms import (
    AxiomCheck,
    AxiomReport,
    ClassLabel,
    Witness,
    build_report,
    check_metric_type,
    check_pm1,
    check_pm2,
    check_pm3,
    check_pm4,
    classify,
    estimate_min_K,
)
from .series import (
    AlphaSeriesCertificate,
    RateSequence,
    RelaxedReport,
    certify_alpha_series,
    check_relaxed_hypotheses,
    kannan_rate_terms,
    product_terms_Cn,
)
from .transforms import (
    TransformSpec,
    apply_transform,
    from_metric_with_basepoint,
    induced_dp,
    power_pms,
    sum_pm_bm,
    to_pt,
)
from .solvers import (
    AdmissibilityConfig,
    AlphaSeriesGate,
    BoundCheck,
    CauchyDiagnosis,
    FixedPointReport,
    HypothesisEntry,
    IterationTrace,
    PerMapCheck,
    PhiFunction,
    PsiFunction,
    RelaxedCnGate,
    detect_cauchy,
    iterate_power,
    per_map_fixed_point_check,
    phi_identity,
    phi_power,
    phi_sqrt,
    psi_max,
    psi_sum,
    residual,
    scan_limit_candidates,
    solve_admissible,
    solve_family,
    solve_pair_banach,
    solve_pair_kannan,
    solve_pair_power,
    trace_from_points,
    uniqueness_scan,
    verify_bound,
)
from .fixtures import FIXTURE_NAMES, Fixture, get_fixture, list_fixtures, run_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
