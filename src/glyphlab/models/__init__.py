from .config import TrainConfig, TrainHistory
from .layers import Conv2d, Dense, Flatten, MaxPool2x2, Relu, Sigmoid
from .optim import RmspropState, rmsprop_init, rmsprop_step
from .mlr import MlrModel, mlr_train
from .cnn import CnnModel, bce_loss, cnn_train, param_count, reference_cnn
from .io import load_model, save_model


def predict_proba(model, images):
    """Per-image class probabilities from either classifier kind."""
    return model.predict_proba(images)


__all__ = [
    "TrainConfig",
    "TrainHistory",
    "Conv2d",
    "Dense",
    "Flatten",
    "MaxPool2x2",
    "Relu",
    "Sigmoid",
    "RmspropState",
    "rmsprop_init",
    "rmsprop_step",
    "MlrModel",
    "mlr_train",
    "CnnModel",
    "bce_loss",
    "cnn_train",
    "param_count",
    "reference_cnn",
    "load_model",
    "save_model",
    "predict_proba",
]
