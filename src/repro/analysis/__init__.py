"""Theory hooks: invariants, bounds, curve fitting, convergence, statistics."""

from .convergence import (
    ConvergenceCurve,
    compare_milestones,
    curve_from_history,
)
from .bounds import (
    log2,
    loglog2,
    lower_bound_rounds,
    namedropper_round_bound,
    optimal_message_bound,
    phases_to_cover,
    squaring_recurrence,
    strong_discovery_pointer_bound,
    sublog_phase_bound,
    swamping_round_bound,
)
from .fitting import (
    GROWTH_MODELS,
    ModelFit,
    best_model,
    compare_models,
    describe_fits,
    fit_all_models,
    fit_model,
)
from .invariants import (
    BallContainmentObserver,
    InvariantViolation,
    MonotonicityObserver,
    closure_deficit,
    is_knowledge_closed,
    weak_closure_witnesses,
)
from .stats import Aggregate, aggregate, aggregate_results, completion_rate, group_by

__all__ = [
    "Aggregate",
    "BallContainmentObserver",
    "ConvergenceCurve",
    "compare_milestones",
    "curve_from_history",
    "GROWTH_MODELS",
    "InvariantViolation",
    "ModelFit",
    "MonotonicityObserver",
    "aggregate",
    "aggregate_results",
    "best_model",
    "closure_deficit",
    "compare_models",
    "completion_rate",
    "is_knowledge_closed",
    "describe_fits",
    "fit_all_models",
    "fit_model",
    "group_by",
    "log2",
    "loglog2",
    "lower_bound_rounds",
    "namedropper_round_bound",
    "optimal_message_bound",
    "phases_to_cover",
    "squaring_recurrence",
    "strong_discovery_pointer_bound",
    "sublog_phase_bound",
    "swamping_round_bound",
    "weak_closure_witnesses",
]
