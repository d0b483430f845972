"""Cut-based valuation of ownership and flow networks.

Consolidated value is observer-relative: fix a perimeter, a measurement
basis, units, an optional discount rule and a control rule, and the value of
the perimeter follows from its boundary statistics alone.  This package
provides the valuation engine (observed or estimated internal values),
error-propagation bounds, control-matrix construction, the Fisher
chain-linking protocol, a seniority clearing engine, piecewise-affine payoff
tools with certified error bounds, and audit-grade disclosure packages with
hash-verified files.
"""

from .clearing import ClearingOutcome, ClearingProblem, clear, net_boundary_flows
from .control import (
    ControlMatrix,
    attenuated_control,
    build_control,
    herfindahl_control,
    select_perimeter,
    threshold_control,
)
from .engine import (
    CutStatistics,
    SolverConfig,
    ValuationResult,
    cut_gap,
    effective_external_share,
    estimate_internal_values,
    evaluate_for_observer,
    evaluate_regime_a,
    evaluate_regime_b,
    hedge_vector,
    implied_bases,
    scale_units,
    spectral_radius_bound,
)
from .errors import (
    CbvError,
    ConvergenceError,
    DimensionError,
    DomainError,
    EmissionError,
    IntegrityError,
    MembershipError,
    PackageError,
    ProtocolError,
    RegimeError,
    SignError,
    StabilityError,
)
from .fisher import (
    FisherIndices,
    FisherQuad,
    bilateral_goods_index,
    chain_link,
    cross_priced_quad,
    elementary_indices,
    fisher_combine,
    fisher_indices,
)
from .network import (
    BlockPartition,
    OwnershipNetwork,
    Perimeter,
    partition,
    validate_network,
)
from .observer import ControlRuleSpec, FxPppSpec, Observer, SdfSpec, Tolerances
from .payoffs import (
    AggregatorPolicy,
    PwaFunction,
    State,
    StateSpace,
    delta_max,
    eval_waterfall,
    pwa_build,
    pwa_error_bound,
    scl_evaluate,
)
from .report import (
    CutReportPackage,
    CutSummaryDoc,
    Manifest,
    build_cut_summary,
    build_pov,
    emit_pov,
    load_package,
    parse_pov,
    render_disclosure_sheet,
    validate_directory,
    validate_package,
    write_package,
)
from .robustness import (
    ConditioningReport,
    MonteCarloBand,
    PerturbationSpec,
    boundary_bound,
    condition_diagnostics,
    monte_carlo_band,
    regime_b_bound,
)
from .validation import Finding, ValidationReport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
