"""Source-level convenience API.

``QoRPredictor`` wraps :class:`~repro.core.hierarchical.HierarchicalQoRModel`
with the front-end so that users can go straight from HLS-C source text and a
pragma configuration to a post-route QoR estimate, which is the headline
usage mode of the paper ("source-to-post-route prediction").
"""

from __future__ import annotations

from pathlib import Path

from repro.core.dataset import DesignInstance, build_design_instances
from repro.core.hierarchical import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    HierarchicalTrainingReport,
)
from repro.core.lru import LRUDict
from repro.frontend.pragmas import PragmaConfig
from repro.hls.op_library import DEFAULT_LIBRARY, OperatorLibrary
from repro.ir.builder import lower_source
from repro.ir.structure import IRFunction


class QoRPredictor:
    """End-to-end predictor: HLS-C source + pragmas -> post-route QoR."""

    #: default bound of the source-lowering memo.  Lowered IR trees are
    #: heavy (they anchor the graph cache's per-object memos too), so a
    #: resident service fed unboundedly many distinct sources must recycle
    #: them; all cross-request caches key by *content* fingerprint, so a
    #: re-lowered source hits the same warm state as the evicted one.
    LOWERED_SOURCE_CAPACITY = 256

    def __init__(
        self,
        config: HierarchicalModelConfig | None = None,
        *,
        library: OperatorLibrary = DEFAULT_LIBRARY,
        lowered_cache_capacity: int | None = LOWERED_SOURCE_CAPACITY,
    ):
        self.library = library
        self.model = HierarchicalQoRModel(config, library=library)
        self._functions: dict[str, IRFunction] = {}
        # lowering memo: the model's per-object fast paths key by function
        # object, so repeated predictions from identical source text should
        # resolve to the same IRFunction; LRU-bounded because a long-lived
        # server would otherwise pin every source it ever saw
        self._lowered_sources: LRUDict[str, IRFunction] = LRUDict(
            lowered_cache_capacity
        )

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit_sources(
        self,
        sources: dict[str, str],
        configs_per_kernel: dict[str, list[PragmaConfig]],
    ) -> HierarchicalTrainingReport:
        """Train from raw source strings (runs the ground-truth flow)."""
        kernels = {name: lower_source(text) for name, text in sources.items()}
        self._functions.update(kernels)
        instances = build_design_instances(
            kernels, configs_per_kernel, library=self.library
        )
        return self.model.fit(instances)

    def fit_instances(self, instances: list[DesignInstance]) -> HierarchicalTrainingReport:
        """Train from pre-built design instances (labels already computed)."""
        for instance in instances:
            self._functions.setdefault(instance.kernel, instance.function)
        return self.model.fit(instances)

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def clear_inference_caches(self) -> None:
        """Drop the lowering memo and the model's inference caches."""
        self._lowered_sources.clear()
        self.model.clear_inference_caches()

    def _lowered(self, source: str) -> IRFunction:
        """The IR of ``source``, lowered once per distinct source text."""
        function = self._lowered_sources.get(source)
        if function is None:
            function = lower_source(source)
            self._lowered_sources[source] = function
        return function

    def predict_source(
        self, source: str, config: PragmaConfig | None = None
    ) -> dict[str, float]:
        """Predict QoR for source text under a pragma configuration."""
        return self.model.predict(self._lowered(source), config)

    def predict(
        self, function: IRFunction, config: PragmaConfig | None = None
    ) -> dict[str, float]:
        """Predict QoR for an already-lowered kernel."""
        return self.model.predict(function, config)

    def predict_batch(
        self,
        function: IRFunction,
        configs: list[PragmaConfig | None],
        *,
        precision: str | None = None,
    ) -> list[dict[str, float]]:
        """Predict QoR for a whole design space in batched forward passes.

        ``precision`` (``"float32"``/``"float64"``) switches the inference
        tier before the sweep; ``None`` keeps the model's active tier.
        """
        return self.model.predict_batch(function, configs, precision=precision)

    def canonical_signature(
        self, source: str, config: PragmaConfig | None
    ) -> str:
        """Canonical (effective-directive) signature of a design request.

        Two requests with this signature are guaranteed bit-identical
        predictions: the signature is the pragma key of the *canonicalized*
        configuration — the single key under which the construction cache,
        the prediction memo and the warm-cache blobs store the design.  The
        serve-layer micro-batcher uses it to score duplicate submissions
        (same source, HLS-equivalent pragmas) once per batch.  The rewrite
        is memoized in the model's construction cache, shared with
        ``predict_batch``, so a repeated request is not canonicalized again.
        """
        function = self._lowered(source)
        resolved = config if config is not None else PragmaConfig()
        return self.model._graph_cache.canonical_config(function, resolved).key()

    def predict_source_batch(
        self,
        source: str,
        configs: list[PragmaConfig | None],
        *,
        precision: str | None = None,
    ) -> list[dict[str, float]]:
        """Batched prediction straight from HLS-C source text."""
        return self.model.predict_batch(
            self._lowered(source), configs, precision=precision
        )

    # ------------------------------------------------------------------ #
    # persistence (warm-start workflow)
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path, *, warm_caches: bool = True) -> Path:
        """Persist the model — and, by default, its warm inference caches.

        Run the sweeps you expect to serve, then ``save``: a predictor
        restored with :meth:`load` answers those sweeps straight from the
        persisted prediction memo (no graph construction at all).
        """
        from repro.core.serialization import save_model

        return save_model(self.model, path, warm_caches=warm_caches)

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        warm_caches: bool = True,
        library: OperatorLibrary = DEFAULT_LIBRARY,
        precision: str = "float64",
    ) -> "QoRPredictor":
        """Restore a predictor saved with :meth:`save` (warm by default).

        ``precision="float32"`` casts the restored weights once into the
        cheap inference tier (the archive itself always stores float64).
        """
        from repro.core.serialization import load_model

        predictor = cls(library=library)
        predictor.model = load_model(
            path, warm_caches=warm_caches, precision=precision
        )
        predictor.model.library = library
        return predictor

    def cache_stats(self) -> dict[str, int]:
        """Inference-cache counters of this predictor, across every layer.

        Returns the construction-cache hit/miss counters (``unit_hits``,
        ``unit_misses``, ``outer_hits``, ``outer_misses``, plus the
        ``persisted_*_loads`` hydrated from a warm-cache blob),
        ``memoized_predictions``, the prediction-memo size, and
        ``outer_templates``, the number of outer-graph sample templates the
        vectorized encoding pipeline has captured (each one lets every
        further configuration with that outer pragma delta skip graph
        copying and re-extraction entirely).  The encoding/message-passing
        caches are surfaced too: ``scatter_index_*`` (process-wide flat
        scatter indices, CSR operators and segment counts),
        ``edge_cache_*`` (process-wide self-loop/degree/norm memos) and
        ``batch_cache_*`` (epoch-level assembled-union replay, summed over
        the model's trainers).  Model-level counters reset on
        :meth:`clear_inference_caches` and on retraining; the process-wide
        scatter/edge counters are cumulative for the process.  On top of the
        model's counters, the predictor adds its source-lowering memo:
        ``lowered_sources`` (entries held) and ``lowered_source_evictions``
        (sources recycled by the LRU bound — see
        :attr:`LOWERED_SOURCE_CAPACITY`).
        """
        stats = self.model.cache_stats()
        stats["lowered_sources"] = len(self._lowered_sources)
        stats["lowered_source_evictions"] = self._lowered_sources.evictions
        return stats

    @staticmethod
    def aggregate_cache_stats(per_worker: list[dict]) -> dict[str, int]:
        """Sum per-worker :meth:`cache_stats` dicts into one fleet view.

        The sharded DSE coordinator collects one counter dict per worker
        process (plus one for in-process recovery work); summing them gives
        the fleet-wide construction/memoization picture — e.g. how much
        graph construction the pragma-locality shard strategy avoided.
        Missing keys count as zero, so reports from different cache versions
        aggregate without error.
        """
        totals: dict[str, int] = {}
        for stats in per_worker:
            for name, value in stats.items():
                totals[name] = totals.get(name, 0) + int(value)
        return totals


__all__ = ["QoRPredictor"]
