"""vulforge: ensemble orchestration for pluggable code-vulnerability
classifiers — bagging, boosting, stacking, and dynamic gated stacking,
with reproducible metrics, rank tables, and divergence/overlap analyses.
"""

from .codefeat import FeaturizerConfig, FeatureVector, featurize, featurize_code, tokenize
from .core import (
    PredictionSet,
    argmax_label,
    binary_label,
    validate_prob_matrix,
    validate_prob_vector,
)
from .ensembles import (
    BaggingEnsemble,
    BoostConfig,
    BoostEnsemble,
    BoostRound,
    DgsConfig,
    GateModel,
    StackingModel,
    adaboost_fit,
    adaboost_fit_external,
    adaboost_predict,
    bagging_fit,
    bagging_from_predictions,
    bagging_predict,
    dgs_fit,
    dgs_predict,
    oof_prediction_set,
    stacking_fit,
    stacking_predict,
)
from .errors import VulforgeError
from .ingest import (
    BootstrapPlan,
    Dataset,
    Sample,
    SplitIndices,
    bootstrap,
    cwe_subset,
    load_dataset,
    stratified_split,
    top_cwes,
)
from .learners import (
    BaseLearnerSpec,
    FeatureMatrix,
    LearnerConfig,
    LinearModel,
    SampleWeights,
    emit_round_weights,
    featurize_dataset,
    fit_builtin,
    ingest_predictions,
    predict_builtin,
    write_predictions,
)
from .metamodels import MetaConfig, MetaModel, meta_fit, meta_predict
from .metrics import (
    DivergenceReport,
    MetricsReport,
    RankTable,
    average_rank,
    binary_metrics,
    divergence,
    overlap_regions,
    weighted_metrics,
)
from .store import load_ensemble, save_ensemble, verify_ensemble

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
