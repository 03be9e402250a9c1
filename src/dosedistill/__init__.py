"""Per-profile distilled dose models.

Train a model with access to features patients may withhold, then a
per-profile model that imitates it while reading only disclosed features,
so predictions never require withheld data.
"""

from .dataset import (
    Cohort,
    EncodedRows,
    Feature,
    FeatureCatalog,
    FeatureCategory,
    StandardizationParams,
    load_and_validate,
    split_cohorts,
    standardize,
)
from .distillation import (
    DistillationConfig,
    DistilledBundle,
    PrivilegedInputs,
    run_study,
    soft_targets,
    sweep_lambda,
    sweep_profiles,
    train_distilled,
    train_privileged,
)
from .errors import (
    DataError,
    DoseDistillError,
    NoFeasibleProfileError,
    NumericError,
    TrainingDivergedError,
)
from .evaluation import (
    STUDY_STATS,
    EvalReport,
    evaluate_model,
    mean_std,
)
from .feature_selection import (
    BaeResult,
    backward_attribute_elimination,
    subset_score,
)
from .models import (
    LinearModel,
    MlpGradients,
    MlpModel,
    TrainConfig,
    fit_least_squares,
    mlp_gradient,
    mlp_new,
    train_mlp,
)
from .profiles import (
    Disclosure,
    Profile,
    ProfileCatalog,
    default_catalog,
    train_on_demand,
)
from .synthetic import (
    SyntheticLatents,
    SyntheticSpec,
    generate_synthetic,
    synthetic_latents,
    write_dataset,
)

__version__ = "0.1.0"
