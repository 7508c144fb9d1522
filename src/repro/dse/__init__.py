"""Design-space exploration: space enumeration, Pareto analysis, explorers."""

from repro.dse.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    SweepCheckpoint,
    load_checkpoint,
    save_checkpoint,
    space_fingerprint,
)
from repro.dse.explorer import (
    DSEResult,
    FunnelDSEResult,
    FunnelExplorer,
    GroundTruthSpace,
    ModelGuidedExplorer,
    exhaustive_ground_truth,
    oracle_dse,
    qor_objectives,
    resource_cost,
)
from repro.dse.pareto import (
    DesignPoint,
    ParetoFront,
    adrs,
    dominates,
    fronts_bit_equal,
    hypervolume_2d,
    merge_fronts,
    normalize_objectives,
    pareto_front,
)
from repro.dse.sharding import (
    SHARD_STRATEGIES,
    ShardedDSEResult,
    ShardedExplorer,
    ShardSpec,
    partition_space,
    predicted_front,
)
from repro.dse.space import (
    UNROLL_FACTORS,
    DedupedSpace,
    DesignClass,
    DesignSpace,
    LoopChain,
    enumerate_design_space,
    loop_chains,
    sample_design_space,
)

__all__ = [
    "CHECKPOINT_VERSION", "CheckpointWriter", "SweepCheckpoint",
    "load_checkpoint", "save_checkpoint", "space_fingerprint",
    "DSEResult", "FunnelDSEResult", "FunnelExplorer", "GroundTruthSpace",
    "ModelGuidedExplorer",
    "exhaustive_ground_truth", "oracle_dse", "qor_objectives", "resource_cost",
    "DesignPoint", "ParetoFront", "adrs", "dominates", "fronts_bit_equal",
    "hypervolume_2d", "merge_fronts", "normalize_objectives", "pareto_front",
    "SHARD_STRATEGIES", "ShardedDSEResult", "ShardedExplorer", "ShardSpec",
    "partition_space", "predicted_front",
    "UNROLL_FACTORS", "DedupedSpace", "DesignClass", "DesignSpace",
    "LoopChain", "enumerate_design_space", "loop_chains",
    "sample_design_space",
]
