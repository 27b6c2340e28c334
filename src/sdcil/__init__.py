"""Class-incremental classification from per-class one-class SVMs.

Each class gets its own one-class SVM whose kernel width is chosen so the
support vectors hug the class boundary; regions claimed by zero or several
classes are settled by 1vs1 SVMs trained on the stored support vectors, so
registering a new class never retrains existing models.
"""

from .cil import (
    BatchSvm,
    CilConfig,
    CilModel,
    PredictionDetail,
    add_class,
    batch_svm_classify,
    knn_labels,
    load,
    new_model,
    ocsvm_nn_labels,
    predict,
    predict_detail,
    predict_details,
    predict_labels,
    save,
    train_batch_svm,
)
from .dataset import (
    LabeledDataset,
    Scaler,
    SplitSpec,
    fit_standardize,
    load_csv,
    load_uci,
    make_toy,
    make_waveform,
    stratified_split,
)
from .geometry import BoundaryPartition, WidthSelection, beps_partition, select_width
from .kernels import KernelWidth, candidate_widths, gram
from .ocsvm import OcsvmModel
from .pairwise import CvConfig, PairwiseClassifier, train_pair
from .smo import DualSolution, SolverConfig, solve_binary_dual, solve_ocsvm_dual

__version__ = "0.1.0"
