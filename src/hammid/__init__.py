"""Multivariable Hammerstein model identification.

Identify block-oriented nonlinear models (static polynomial nonlinearity
followed by linear rational dynamics per input-output channel) from sampled
input-output data: pseudo-random excitation design, preprocessing, batch
and recursive least-squares estimation, structure-order selection, and
hold-out validation, chained by ``identify``.
"""

from .estimate import (
    BatchResult,
    ChannelOrders,
    EstimatorState,
    RankDeficiencyError,
    RegressionProblem,
    SeparatedParameters,
    StructureOrders,
    assemble_model,
    batch_ls,
    build_regressor,
    init_estimator,
    rls_update,
    run_rls,
    separate_parameters,
)
from .excitation import AmplitudeGrid, LcgState, generate_excitation, lcg_next
from .model import (
    Dataset,
    HammersteinChannel,
    LinearDynamics,
    MimoHammersteinModel,
    StaticNonlinearity,
    eval_nonlinearity,
    gtaw_pool_model,
    max_pole_radius,
    preset_model,
    simulate_channel,
    simulate_linear,
    simulate_mimo,
)
from .persistence import (
    FileFormatError,
    load_dataset,
    load_model,
    load_series,
    save_dataset,
    save_model,
    save_series,
)
from .pipeline import Identification, StageError, identify, load_config
from .preprocess import median_filter, prepare_dataset, remove_dc
from .structure import (
    AugmentationError,
    DelayEstimate,
    SearchBounds,
    StructureSearchResult,
    augment_columns,
    estimate_delay,
    estimate_delays,
    format_search_report,
    loss_J,
    select_structure,
)
from .validate import (
    ValidationReport,
    evaluate,
    format_validation_report,
    split_dataset,
)

__version__ = "0.1.0"
