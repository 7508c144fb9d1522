"""The paper's core contribution: hierarchical source-to-post-route QoR
prediction with GNNs."""

from repro.core.dataset import (
    DesignInstance,
    application_targets,
    build_design_instances,
    default_configurations,
    flat_sample,
    graph_to_sample,
    inner_unit_samples,
)
from repro.core.hierarchical import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    HierarchicalTrainingReport,
)
from repro.core.metrics import (
    qor_mape_table,
    relative_error,
    summarize_errors,
)
from repro.core.models import (
    GNNEncoder,
    GlobalGNN,
    InnerLoopGNN,
    ITERATION_LATENCY_TARGET,
    LATENCY_TARGET,
    RESOURCE_TARGETS,
)
from repro.core.predictor import QoRPredictor
from repro.core.serialization import load_model, peek_manifest, save_model
from repro.core.trainer import GraphRegressorTrainer, TrainingConfig, TrainingResult

__all__ = [
    "DesignInstance", "application_targets",
    "build_design_instances",
    "default_configurations", "flat_sample", "graph_to_sample",
    "inner_unit_samples",
    "HierarchicalModelConfig", "HierarchicalQoRModel", "HierarchicalTrainingReport",
    "qor_mape_table", "relative_error", "summarize_errors",
    "GNNEncoder", "GlobalGNN", "InnerLoopGNN",
    "ITERATION_LATENCY_TARGET", "LATENCY_TARGET", "RESOURCE_TARGETS",
    "QoRPredictor",
    "load_model", "peek_manifest", "save_model",
    "GraphRegressorTrainer", "TrainingConfig", "TrainingResult",
]
