"""Theory hooks: invariants, bounds, curve fitting, convergence."""

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
    closure_deficit,
    is_knowledge_closed,
    weak_closure_witnesses,
)

__all__ = [
    "BallContainmentObserver",
    "ConvergenceCurve",
    "compare_milestones",
    "curve_from_history",
    "GROWTH_MODELS",
    "InvariantViolation",
    "ModelFit",
    "best_model",
    "closure_deficit",
    "compare_models",
    "is_knowledge_closed",
    "describe_fits",
    "fit_all_models",
    "fit_model",
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
