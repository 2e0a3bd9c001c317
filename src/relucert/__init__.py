"""relucert: train small ReLU classifiers with joint l1/linf margin
regularization and certify their robustness for every lp-norm at once."""

from .net_core import (
    ReluNet,
    random_net,
    load_model,
    save_model,
)
from .geometry import (
    naive_union_bound,
    union_min_norm,
    hull_min_norm,
    ratio_analysis,
)
from .certify import (
    EpsTriple,
    certificates,
    exact_robustness_oracle,
)
from .mmr_train import (
    MmrUniversalConfig,
    TrainConfig,
    TrainingDiverged,
    loss,
    loss_gradient,
    train,
)
from .datasets import Dataset, gen_blobs, gen_corners, load_dataset, save_dataset

__version__ = "0.1.0"
