"""A small numpy-based neural-network framework with graph support.

Replaces PyTorch Geometric for the reproduction: reverse-mode autograd,
dense/MLP layers, the five message-passing layers used in the paper, graph
pooling, losses and optimizers.
"""

from repro.nn.autograd import (
    Tensor,
    concat,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    stack_rows,
)
from repro.nn.data import (
    Batch,
    BatchCache,
    FeatureScaler,
    GraphSample,
    OptypeEncoder,
    TargetScaler,
    iterate_minibatches,
    make_batch,
    train_validation_test_split,
)
from repro.nn.layers import MLP, Dropout, Linear, Module, Parameter, glorot
from repro.nn.losses import huber_loss, mae_loss, mape, mse_loss, rmse
from repro.nn.message_passing import (
    CONV_REGISTRY,
    GATConv,
    GCNConv,
    MessagePassingLayer,
    PNAConv,
    SAGEConv,
    TransformerConv,
    add_self_loops,
    make_conv,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.pooling import (
    global_max_pool,
    global_mean_pool,
    global_sum_pool,
    sum_max_pool,
)

__all__ = [
    "Tensor", "concat", "segment_max", "segment_mean", "segment_softmax",
    "segment_sum", "stack_rows",
    "Batch", "BatchCache", "FeatureScaler", "GraphSample", "OptypeEncoder",
    "TargetScaler", "iterate_minibatches", "make_batch",
    "train_validation_test_split",
    "MLP", "Dropout", "Linear", "Module", "Parameter", "glorot",
    "huber_loss", "mae_loss", "mape", "mse_loss", "rmse",
    "CONV_REGISTRY", "GATConv", "GCNConv", "MessagePassingLayer", "PNAConv",
    "SAGEConv", "TransformerConv", "add_self_loops", "make_conv",
    "SGD", "Adam", "Optimizer",
    "global_max_pool", "global_mean_pool", "global_sum_pool", "sum_max_pool",
]
