"""glyphlab: recognition toolkit for small grayscale glyph datasets.

A numpy-only library plus CLI covering the whole pipeline: P5 ingestion
into a packed binary dataset format, exploratory analysis (exact tSNE,
clustered distance maps), a multinomial logistic regression and a small
convolutional network trained with RMSProp under switchable
augmentation regimes, and ROC/AUC evaluation. Every stage is
deterministic given its seed.
"""

__version__ = "0.1.0"

from .augment import AffineParams, AugmentPolicy, apply_affine, augment_batch, preset, sample_affine
from .dataset import (
    GrayImage,
    LabeledDataset,
    SplitSpec,
    ingest_dir,
    load_pgm,
    read_gly,
    resize_bilinear,
    split_stratified,
    write_gly,
    write_pgm,
)
from .eda import (
    Dendrogram,
    DistanceMatrix,
    Embedding,
    TsneConfig,
    calibrate_row,
    clustered_map,
    hcluster_average,
    kl_divergence,
    kl_gradient,
    pairwise_euclidean,
    tsne,
)
from .errors import (
    ArgumentError,
    CorruptFileError,
    DataFormatError,
    DimensionError,
    EmptyDatasetError,
    GlyphLabError,
    StratificationError,
    TrainingDivergedError,
    UndefinedCurveError,
    UnsupportedDepthError,
    UnsupportedFormatError,
)
from .metrics import (
    ConfusionMatrix,
    RocCurve,
    accuracy,
    auc,
    confusion_matrix,
    macro_auc_ovr,
    overfit_epoch,
    roc_curve,
)
from .models import (
    CnnModel,
    MlrModel,
    TrainConfig,
    TrainHistory,
    bce_loss,
    cnn_train,
    load_model,
    mlr_train,
    param_count,
    predict_proba,
    reference_cnn,
    rmsprop_init,
    rmsprop_step,
    save_model,
)
from .numerics import Rng, Tensor, derive_seed, glorot_init
