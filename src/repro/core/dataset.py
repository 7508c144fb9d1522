"""Dataset generation (Fig. 1, "dataset generation" stage).

A *design instance* couples one kernel, one pragma configuration and the
ground-truth QoR obtained from the complete C-to-bitstream flow simulator.
From design instances this module derives the three datasets of the paper:

* **inner-loop datasets** for ``GNNp`` (pipelined) and ``GNNnp``
  (non-pipelined): every inner-hierarchy loop is extracted as a standalone
  kernel, pushed through the flow, and paired with its pragma-aware subgraph;
* **application-level designs** for ``GNNg``: the condensed outer graph of
  the whole kernel (super-node features are filled in during hierarchical
  training, once the inner models exist) paired with whole-design QoR;
* **flat samples** used by the whole-graph baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frontend.pragmas import PragmaConfig
from repro.graph.cdfg import CDFG
from repro.graph.construction import build_flat_graph
from repro.graph.hierarchy import HierarchicalDecomposition, InnerLoopUnit, decompose
from repro.hls.flow import run_full_flow
from repro.hls.op_library import DEFAULT_LIBRARY, OperatorLibrary
from repro.hls.reports import QoRResult
from repro.ir.extract import extract_loop_kernel
from repro.ir.structure import IRFunction
from repro.nn.data import GraphSample


# --------------------------------------------------------------------------- #
# design instances
# --------------------------------------------------------------------------- #
@dataclass
class DesignInstance:
    """One kernel + configuration + ground-truth QoR."""

    kernel: str
    function: IRFunction
    config: PragmaConfig
    qor: QoRResult

    @property
    def config_key(self) -> str:
        return self.config.key()


def build_design_instances(
    kernels: dict[str, IRFunction],
    configs_per_kernel: dict[str, list[PragmaConfig]],
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
) -> list[DesignInstance]:
    """Run the ground-truth flow for every (kernel, configuration) pair."""
    instances: list[DesignInstance] = []
    for kernel_name, function in kernels.items():
        for config in configs_per_kernel.get(kernel_name, [PragmaConfig()]):
            qor = run_full_flow(function, config, library=library)
            instances.append(
                DesignInstance(
                    kernel=kernel_name, function=function, config=config, qor=qor
                )
            )
    return instances


# --------------------------------------------------------------------------- #
# graph <-> sample conversion
# --------------------------------------------------------------------------- #
def graph_to_sample(
    graph: CDFG,
    targets: dict[str, float] | None = None,
    metadata: dict[str, str] | None = None,
) -> GraphSample:
    """Convert an annotated CDFG into a :class:`GraphSample`.

    A zero-copy handoff: the sample's feature matrix and edge index are live
    views of the graph's columns, and the interned optype codes ride along
    so encoders can skip per-node string resolution entirely.
    """
    return GraphSample(
        optypes=graph.optype_list(),
        features=graph.feature_matrix(),
        edge_index=graph.edge_index(),
        targets=dict(targets or {}),
        loop_features=graph.loop_features.as_vector(),
        metadata={**graph.metadata, **(metadata or {})},
        graph_codes=graph.optype_code_array(),
        graph_table=graph.optype_table,
    )


def _unit_dedup_key(instance: DesignInstance, unit: InnerLoopUnit) -> str:
    """Key identifying one inner-loop design point across configurations.

    Two configurations of the enclosing kernel that apply identical
    directives to a given inner loop (and to the arrays it touches) produce
    the same extracted design, so only one copy enters the dataset —
    mirroring the "valid designs" counting of the paper.
    """
    labels = [unit.loop.label] + [sub.label for sub in unit.loop.all_sub_loops()]
    loop_parts = [f"{label}:{instance.config.loop(label).describe()}" for label in labels]
    arrays = sorted(
        {instr.array for instr in unit.loop.body.walk_instructions() if instr.array}
    )
    array_parts = [f"{name}:{instance.config.array(name).describe()}" for name in arrays]
    return f"{instance.kernel}|{'|'.join(loop_parts + array_parts)}"


def inner_unit_samples(
    instances: list[DesignInstance],
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    deduplicate: bool = True,
) -> tuple[list[GraphSample], list[GraphSample]]:
    """Build the ``GNNp`` and ``GNNnp`` datasets from design instances.

    Every inner-hierarchy loop is extracted as a standalone kernel and run
    through the complete flow to obtain its own labels (post-route resources,
    loop latency and iteration latency).
    """
    pipelined: list[GraphSample] = []
    non_pipelined: list[GraphSample] = []
    seen: set[str] = set()
    for instance in instances:
        decomposition = decompose(instance.function, instance.config, library=library)
        for unit in decomposition.inner_units:
            key = _unit_dedup_key(instance, unit)
            if deduplicate and key in seen:
                continue
            seen.add(key)
            extracted = extract_loop_kernel(instance.function, unit.loop)
            qor = run_full_flow(extracted, instance.config, library=library)
            loop_report = None
            if qor.hls_report is not None:
                loop_report = qor.hls_report.loops.get(unit.loop.label)
            iteration_latency = (
                loop_report.iteration_latency if loop_report is not None else 1
            )
            targets = {
                "latency": float(qor.latency),
                "iteration_latency": float(iteration_latency),
                "lut": float(qor.lut),
                "dsp": float(qor.dsp),
                "ff": float(qor.ff),
            }
            sample = graph_to_sample(
                unit.subgraph, targets,
                metadata={
                    "kernel": instance.kernel,
                    "loop": unit.loop.label,
                    "category": unit.category.name,
                    "config": instance.config.describe(),
                },
            )
            if unit.pipelined:
                pipelined.append(sample)
            else:
                non_pipelined.append(sample)
    return pipelined, non_pipelined


def application_targets(instance: DesignInstance) -> dict[str, float]:
    """Whole-design QoR labels of one instance."""
    return {
        "latency": float(instance.qor.latency),
        "lut": float(instance.qor.lut),
        "dsp": float(instance.qor.dsp),
        "ff": float(instance.qor.ff),
    }


def flat_sample(
    instance: DesignInstance,
    *,
    pragma_aware: bool = True,
    library: OperatorLibrary = DEFAULT_LIBRARY,
) -> GraphSample:
    """Whole-graph sample (no hierarchy) used by the flat baselines."""
    graph = build_flat_graph(
        instance.function,
        instance.config if pragma_aware else PragmaConfig(),
        pragma_aware=pragma_aware,
        library=library,
    )
    return graph_to_sample(
        graph, application_targets(instance),
        metadata={"kernel": instance.kernel, "config": instance.config.describe()},
    )


def decomposition_of(
    instance: DesignInstance, *, library: OperatorLibrary = DEFAULT_LIBRARY
) -> HierarchicalDecomposition:
    """The hierarchical decomposition of one design instance."""
    return decompose(instance.function, instance.config, library=library)


def default_configurations(
    function: IRFunction,
    *,
    limit: int = 64,
    rng: np.random.Generator | None = None,
    include_baseline: bool = True,
) -> list[PragmaConfig]:
    """A sampled set of design points for dataset generation.

    Uses the DSE design-space enumeration (imported lazily to avoid a
    package-level import cycle) and sub-samples it to ``limit`` points.
    """
    from repro.dse.space import enumerate_design_space

    configs = enumerate_design_space(function)
    rng = rng or np.random.default_rng(0)
    if len(configs) > limit:
        indices = rng.choice(len(configs), size=limit, replace=False)
        configs = [configs[i] for i in sorted(indices)]
    if include_baseline and all(c.describe() != "baseline" for c in configs):
        configs = [PragmaConfig()] + configs
    return configs


__all__ = [
    "DesignInstance",
    "build_design_instances", "graph_to_sample", "inner_unit_samples",
    "application_targets", "flat_sample", "decomposition_of",
    "default_configurations",
]
