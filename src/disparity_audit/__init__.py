"""Model-agnostic auditing of per-concept, per-group performance disparities
for multi-label image classifiers."""

__version__ = "0.1.0"

from .data import (
    AnnotatedImage,
    BoxAnnotation,
    ExclusionReason,
    PredictionRecord,
    ScoreMatrix,
    load_annotations,
    load_predictions,
    validate_dataset,
)
from .errors import AuditError, ConfigError, DataError, InvariantError
from .groups import (
    GroupRule,
    assign_groups,
    assignment_summary,
    region_rule,
    terms_rule,
)
from .concepts import (
    ClassMapping,
    TargetMatrix,
    canonicalize_label,
    image_target_set,
    map_targets,
    map_to_model_classes,
)
from .metrics import (
    rank_pool,
    ranked_metrics,
    select_threshold,
    split_validation_test,
)
from .sampling import compute_budget, derive_rng, derive_seed
from .disparity import (
    MetricEstimate,
    pair_disparity,
    percentile,
    significance_flag,
)
from .synth import CellSpec, ScenarioSpec, closed_form_auc, generate
