"""Hierarchical training and prediction (Sections III-C and III-D).

``HierarchicalQoRModel`` bundles the three GNNs of the paper:

* ``GNNp`` — QoR of pipelined inner-hierarchy loops;
* ``GNNnp`` — QoR of non-pipelined inner-hierarchy loops;
* ``GNNg`` — QoR of the whole application, operating on the condensed outer
  graph whose super nodes carry the QoR *predicted* by the inner models.

Training is staged exactly as in the paper: the inner models are trained
first on extracted sub-loops, their weights are frozen, their predictions
annotate the super nodes, and only then is the global model trained.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import (
    DesignInstance,
    application_targets,
    graph_to_sample,
    inner_unit_samples,
)
from repro.core.models import GlobalGNN, InnerLoopGNN
from repro.core.trainer import GraphRegressorTrainer, TrainingConfig, TrainingResult
from repro.frontend.pragmas import PragmaConfig
from repro.graph.cache import GraphConstructionCache
from repro.graph.cdfg import CDFG, NODE_FEATURE_NAMES, NodeKind
from repro.graph.hierarchy import InnerLoopUnit, decompose, decomposition_signature
from repro.hls.op_library import DEFAULT_LIBRARY, OperatorLibrary
from repro.core.lru import LRUDict
from repro.ir.structure import IRFunction
from repro.flags import normalize_precision
from repro.nn.data import GraphSample, train_validation_test_split

#: column of each Table II feature in a sample's numerical feature matrix
_FEATURE_COLUMN = {name: column for column, name in enumerate(NODE_FEATURE_NAMES)}


@dataclass
class _OuterSampleTemplate:
    """Pre-extracted :class:`GraphSample` ingredients of one outer-graph delta.

    ``predict_batch`` converts the condensed outer graph of every pending
    configuration into a sample; for configurations sharing an outer pragma
    delta only the super-node QoR annotations differ.  The template captures
    the conversion once — optype column, edge index and pristine feature
    matrix are shared read-only between samples (the encoder translates the
    shared optype table once), and each configuration gets a fresh matrix
    copy with its inner predictions written straight into the annotated
    rows, skipping graph copy, node iteration and re-extraction entirely.
    """

    optypes: list[str]
    edge_index: np.ndarray
    base_features: np.ndarray
    loop_features: np.ndarray
    metadata: dict[str, str]
    #: interned optype codes + table of the outer graph (encoder fast path)
    graph_codes: np.ndarray
    graph_table: list[str]
    #: super-node row ids per inner-unit loop label
    super_rows: dict[str, np.ndarray]
    #: per super-node row, the ``invocations`` factor of the ``work`` feature
    #: (a never-written 0.0 count reads as 1.0, as in
    #: :func:`~repro.graph.features.annotate_super_node`)
    work_invocations: dict[str, np.ndarray]


def _build_outer_template(graph: CDFG) -> _OuterSampleTemplate:
    """Capture the sample-conversion ingredients of a pristine outer graph.

    Reads the graph's node columns directly — kinds, loop labels and the
    columnar feature block — and ``base_features`` is handed over as the
    zero-copy view of the cached (pristine, never annotated) outer graph's
    feature block.
    """
    rows: dict[str, list[int]] = {}
    labels = graph.node_loop_labels
    for node_id, kind in enumerate(graph.node_kinds):
        if kind is NodeKind.SUPER_NODE:
            rows.setdefault(labels[node_id], []).append(node_id)
    super_rows = {
        label: np.asarray(ids, dtype=np.int64) for label, ids in rows.items()
    }
    base_features = graph.feature_matrix()
    invocations_column = base_features[:, _FEATURE_COLUMN["invocations"]]
    work_invocations = {}
    for label, ids in super_rows.items():
        invocations = invocations_column[ids].copy()
        invocations[invocations == 0.0] = 1.0
        work_invocations[label] = invocations
    return _OuterSampleTemplate(
        optypes=graph.optype_list(),
        edge_index=graph.edge_index(),
        base_features=base_features,
        loop_features=graph.loop_features.as_vector(),
        metadata=dict(graph.metadata),
        graph_codes=graph.optype_code_array(),
        graph_table=graph.optype_table,
        super_rows=super_rows,
        work_invocations=work_invocations,
    )


@dataclass
class HierarchicalModelConfig:
    """Hyper-parameters of the whole hierarchical model suite."""

    conv_type: str = "graphsage"
    hidden: int = 32
    num_layers: int = 3
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0


@dataclass
class HierarchicalTrainingReport:
    """Per-stage training results and dataset sizes."""

    gnn_p: TrainingResult | None = None
    gnn_np: TrainingResult | None = None
    gnn_g: TrainingResult | None = None
    dataset_sizes: dict[str, int] = field(default_factory=dict)

    def test_mape(self) -> dict[str, dict[str, float]]:
        """Test MAPE per model and target (shape of Table III rows)."""
        report: dict[str, dict[str, float]] = {}
        if self.gnn_p is not None:
            report["GNNp"] = dict(self.gnn_p.test_mape or self.gnn_p.validation_mape)
        if self.gnn_np is not None:
            report["GNNnp"] = dict(self.gnn_np.test_mape or self.gnn_np.validation_mape)
        if self.gnn_g is not None:
            report["GNNg"] = dict(self.gnn_g.test_mape or self.gnn_g.validation_mape)
        return report


class HierarchicalQoRModel:
    """The paper's hierarchical source-to-post-route QoR predictor."""

    INNER_TARGETS = ("lut", "dsp", "ff", "iteration_latency", "latency")
    GLOBAL_TARGETS = ("lut", "dsp", "ff", "latency")

    #: node budget of one disjoint-union forward pass in :meth:`predict_batch`
    MAX_BATCH_NODES = 200_000

    #: default bound of the per-design prediction memo.  Generous — a memo
    #: entry is a handful of floats, so the default costs tens of MB at
    #: worst — but finite, so a resident service under a churning workload
    #: (unboundedly many distinct designs) recycles the memo instead of
    #: leaking it.  ``prediction_cache_capacity=None`` restores the
    #: unbounded behaviour.
    PREDICTION_CACHE_CAPACITY = 200_000

    def __init__(
        self,
        config: HierarchicalModelConfig | None = None,
        *,
        library: OperatorLibrary = DEFAULT_LIBRARY,
        prediction_cache_capacity: int | None = PREDICTION_CACHE_CAPACITY,
    ):
        self.config = config or HierarchicalModelConfig()
        self.library = library
        self.trainer_p: GraphRegressorTrainer | None = None
        self.trainer_np: GraphRegressorTrainer | None = None
        self.trainer_g: GraphRegressorTrainer | None = None
        self._new_inference_caches(prediction_cache_capacity)
        #: active inference tier across the three trainers (see
        #: :meth:`set_precision`; float64 is the bit-identical default)
        self.precision = "float64"

    def _new_inference_caches(self, prediction_cache_capacity: int | None) -> None:
        """Start empty batched-inference caches.

        Pragma-delta-keyed graphs, the GraphSample conversions of shared
        inner-unit subgraphs (plus each unit's pipelined flag and the
        outer-graph sample templates, which together let repeat deltas skip
        decomposition entirely), and the QoR predictions of already-seen
        design deltas.
        """
        self._graph_cache = GraphConstructionCache()
        self._unit_sample_cache: dict[tuple[str, str], GraphSample] = {}
        self._unit_pipelined: dict[tuple[str, str], bool] = {}
        self._outer_template_cache: dict[tuple[str, str], _OuterSampleTemplate] = {}
        self._prediction_cache: LRUDict[tuple, dict[str, float]] = LRUDict(
            prediction_cache_capacity
        )
        # memo signatures adopted from a warm-cache blob; subtracted by
        # export_warm_caches(delta_only=True) so sharded workers ship only
        # what they computed themselves back to the coordinator
        self._imported_prediction_keys: set[tuple] = set()

    def _scratch(self) -> "HierarchicalQoRModel":
        """A shallow copy that shares this model's trainers over empty caches.

        :meth:`predict` and ``fit``'s stage 2 run the batched steps on one,
        so they leave this model's caches exactly as they found them.
        """
        scratch = copy.copy(self)
        scratch._new_inference_caches(None)
        return scratch

    def set_precision(self, value: str) -> None:
        """Switch all three models to the given inference tier.

        ``float32`` casts each trainer's weights once (the float64 master
        copy is retained, so switching back — and serialization — is
        bit-exact) and every subsequent :meth:`predict`/:meth:`predict_batch`
        encodes batches and runs kernels in that dtype.  The per-design
        prediction memo is dropped because its entries belong to the tier
        that produced them; the graph/template/unit-sample caches hold raw
        float64 features that are cast at batch-encoding time, so they
        survive the switch.
        """
        value = normalize_precision(value)
        if value == self.precision:
            return
        for trainer in (self.trainer_p, self.trainer_np, self.trainer_g):
            if trainer is not None:
                trainer.set_precision(value)
        self._prediction_cache.clear()
        self._imported_prediction_keys.clear()
        self.precision = value

    def clear_inference_caches(self) -> None:
        """Drop cached graphs/samples/predictions (weights are unaffected).

        Also clears the trainers' assembled-batch caches and their counters.
        Inference itself keeps no per-sample encoding state: every union is
        encoded afresh, so a scored sample is released once its caller
        drops it.
        """
        self._graph_cache.clear()
        self._unit_sample_cache.clear()
        self._unit_pipelined.clear()
        self._outer_template_cache.clear()
        self._prediction_cache.clear()
        self._imported_prediction_keys.clear()
        for trainer in (self.trainer_p, self.trainer_np, self.trainer_g):
            if trainer is not None:
                trainer.clear_caches()

    def cache_stats(self) -> dict[str, int]:
        """Counters of every inference cache layer, in one flat dict.

        Construction-cache hits/misses and the prediction-memo/template
        sizes as before, plus the encoding- and message-passing-layer
        caches the vectorized cold path rides on: the process-wide
        ``SCATTER_INDEX_CACHE`` (flat scatter indices, CSR operators,
        segment counts) and ``EDGE_CACHE`` (self-loops, degrees, norm
        columns), and — summed across this model's trainers — the
        epoch-level :class:`~repro.nn.data.BatchCache` counters.
        """
        from repro.nn.autograd import SCATTER_INDEX_CACHE
        from repro.nn.message_passing import EDGE_CACHE

        stats = dict(self._graph_cache.stats.as_dict())
        stats["memoized_predictions"] = len(self._prediction_cache)
        stats["prediction_cache_evictions"] = self._prediction_cache.evictions
        stats["outer_templates"] = len(self._outer_template_cache)
        stats.update(SCATTER_INDEX_CACHE.stats())
        stats.update(EDGE_CACHE.stats())
        batch_totals: dict[str, int] = {}
        for trainer in (self.trainer_p, self.trainer_np, self.trainer_g):
            if trainer is None:
                continue
            for name, value in trainer._batch_cache.stats().items():
                batch_totals[name] = batch_totals.get(name, 0) + value
        stats.update(batch_totals)
        return stats

    # ------------------------------------------------------------------ #
    # warm-cache persistence (see core.serialization)
    # ------------------------------------------------------------------ #
    def export_warm_caches(self, *, delta_only: bool = False) -> dict:
        """JSON-compatible snapshot of the construction cache and the
        per-design prediction memo.

        All keys are content fingerprints and directive-slice strings, so
        the snapshot is portable across processes; ``save_model`` stores it
        alongside the weights and ``load_model`` feeds it back through
        :meth:`import_warm_caches`, letting a restarted service serve its
        first sweep from the memo without building a single graph.
        ``delta_only`` subtracts everything adopted through
        :meth:`import_warm_caches` — the bounded write-back payload a
        sharded worker ships to the coordinator, which merges only what
        the worker newly warmed.
        """
        predictions = [
            [fingerprint, outer_key, [list(unit) for unit in units], dict(metrics)]
            for (fingerprint, (outer_key, units)), metrics
            in self._prediction_cache.items()
            if not (
                delta_only
                and (fingerprint, (outer_key, units))
                in self._imported_prediction_keys
            )
        ]
        return {
            "construction": self._graph_cache.export_warm_state(
                delta_only=delta_only
            ),
            "predictions": predictions,
        }

    def import_warm_caches(self, payload: dict) -> None:
        """Adopt a snapshot produced by :meth:`export_warm_caches`."""
        self._graph_cache.import_warm_state(payload.get("construction", {}))
        for fingerprint, outer_key, units, metrics in payload.get("predictions", ()):
            signature = (
                fingerprint,
                (outer_key, tuple((label, key) for label, key in units)),
            )
            self._prediction_cache[signature] = {
                name: float(value) for name, value in metrics.items()
            }
            self._imported_prediction_keys.add(signature)

    def warm_cache_sizes(self) -> dict[str, int]:
        """Entry counts of the persistable warm caches.

        ``units``/``outer`` are the construction cache's live plus
        still-unhydrated persisted graphs, ``predictions`` the memo size;
        the write-back merge reports its effect as before/after deltas of
        these counts.
        """
        sizes = dict(self._graph_cache.warm_state_sizes())
        sizes["predictions"] = len(self._prediction_cache)
        return sizes

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        instances: list[DesignInstance],
        *,
        rng: np.random.Generator | None = None,
    ) -> HierarchicalTrainingReport:
        """Train GNNp, GNNnp and GNNg from design instances."""
        rng = rng or np.random.default_rng(self.config.seed)
        # retraining invalidates memoized predictions (graph caches would
        # survive, but a full reset keeps the invariants trivial); the fresh
        # trainers come out of training in the float64 reference tier
        self.clear_inference_caches()
        self.precision = "float64"
        report = HierarchicalTrainingReport()

        pipelined, non_pipelined = inner_unit_samples(instances, library=self.library)
        report.dataset_sizes = {
            "GNNp": len(pipelined),
            "GNNnp": len(non_pipelined),
            "GNNg": len(instances),
        }
        if pipelined:
            self.trainer_p, report.gnn_p = self._train_inner(pipelined, rng)
        if non_pipelined:
            self.trainer_np, report.gnn_np = self._train_inner(non_pipelined, rng)

        # stage 2: annotate super nodes with (frozen) inner predictions,
        # through predict_batch's template steps on throwaway caches — one
        # forward per inner model per kernel
        scratch = self._scratch()
        application_samples: list[GraphSample | None] = [None] * len(instances)
        by_function: dict[int, list[int]] = {}
        for index, instance in enumerate(instances):
            by_function.setdefault(id(instance.function), []).append(index)
        for indices in by_function.values():
            function = instances[indices[0]].function
            configs = [instances[index].config for index in indices]
            samples = scratch._outer_samples(
                function, list(zip(scratch._signatures(function, configs), configs))
            )
            for index, sample in zip(indices, samples):
                sample.targets = application_targets(instances[index])
                sample.metadata["kernel"] = instances[index].kernel
                application_samples[index] = sample
        self.trainer_g, report.gnn_g = self._train_global(application_samples, rng)
        return report

    def _train_inner(
        self, samples: list[GraphSample], rng: np.random.Generator
    ) -> tuple[GraphRegressorTrainer, TrainingResult]:
        train, validation, test = train_validation_test_split(samples, rng=rng)
        train = train or samples
        trainer = GraphRegressorTrainer(
            model=None, target_names=self.INNER_TARGETS, config=self.config.training
        )
        trainer.fit_preprocessing(train)
        model = InnerLoopGNN(
            in_features=trainer.input_dim(train),
            hidden=self.config.hidden,
            num_layers=self.config.num_layers,
            conv_type=self.config.conv_type,
            rng=np.random.default_rng(self.config.seed),
        )
        trainer.model = model
        result = trainer.train(train, validation or None, test or None)
        return trainer, result

    def _train_global(
        self, samples: list[GraphSample], rng: np.random.Generator
    ) -> tuple[GraphRegressorTrainer, TrainingResult]:
        train, validation, test = train_validation_test_split(samples, rng=rng)
        train = train or samples
        trainer = GraphRegressorTrainer(
            model=None, target_names=self.GLOBAL_TARGETS, config=self.config.training
        )
        trainer.fit_preprocessing(train)
        model = GlobalGNN(
            in_features=trainer.input_dim(train),
            hidden=self.config.hidden,
            num_layers=self.config.num_layers,
            conv_type=self.config.conv_type,
            rng=np.random.default_rng(self.config.seed + 1),
        )
        trainer.model = model
        result = trainer.train(train, validation or None, test or None)
        return trainer, result

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def predict_inner_unit(self, unit: InnerLoopUnit) -> dict[str, float]:
        """QoR prediction for one inner-hierarchy loop (GNNp or GNNnp)."""
        trainer = self._inner_trainer_for(unit.pipelined)
        predictions = trainer.predict([graph_to_sample(unit.subgraph)], cache=False)
        return {name: float(values[0]) for name, values in predictions.items()}

    def predict(
        self, function: IRFunction, config: PragmaConfig | None = None
    ) -> dict[str, float]:
        """Predict post-route QoR of a kernel under a configuration.

        Runs :meth:`predict_batch`'s steps for this one configuration on
        throwaway caches, so the call is stateless: the model's memo and
        caches are left as they were.  Every forward product is
        batch-invariant, so the result has the bits the same configuration
        gets inside any ``predict_batch`` union.  No HLS or implementation
        flow is invoked.
        """
        return self._scratch().predict_batch(function, [config])[0]

    # ------------------------------------------------------------------ #
    # batched inference (the DSE hot path)
    # ------------------------------------------------------------------ #
    def _inner_trainer_for(self, pipelined: bool) -> GraphRegressorTrainer:
        trainer = self.trainer_p if pipelined else self.trainer_np
        if trainer is None:
            trainer = self.trainer_np if pipelined else self.trainer_p
        if trainer is None:
            raise RuntimeError("inner models have not been trained")
        return trainer

    def _unit_key(self, function: IRFunction, unit: InnerLoopUnit) -> tuple[str, str]:
        """Identity of an inner unit's pragma delta (decompose-with-cache
        always assigns a non-empty ``cache_key``).  Keyed by the function's
        content fingerprint so memoized state is portable across processes."""
        return (self._graph_cache.fingerprint(function), unit.cache_key)

    def _unit_sample(self, function: IRFunction, unit: InnerLoopUnit) -> GraphSample:
        """GraphSample of one inner unit, memoized by its pragma-delta key."""
        key = self._unit_key(function, unit)
        sample = self._unit_sample_cache.get(key)
        if sample is None:
            sample = graph_to_sample(unit.subgraph)
            self._unit_sample_cache[key] = sample
        return sample

    def _outer_sample_from_template(
        self,
        template: _OuterSampleTemplate,
        unit_keys: tuple[tuple[str, str], ...],
        fingerprint: str,
        config: PragmaConfig,
        inner_predictions: dict[tuple[str, str], dict[str, float]],
    ) -> GraphSample:
        """One configuration's outer sample, annotated from its template.

        Writes each inner unit's predicted QoR into the super-node rows of a
        fresh copy of the template's pristine feature matrix — value-for-value
        identical to annotating the graph with
        :func:`~repro.graph.features.annotate_super_node` and re-extracting,
        without touching the graph.
        """
        matrix = template.base_features.copy()
        for label, unit_key in unit_keys:
            rows = template.super_rows.get(label)
            if rows is None or not rows.size:
                continue
            prediction = inner_predictions[(fingerprint, unit_key)]
            latency = float(prediction.get("latency", 0.0))
            matrix[rows, _FEATURE_COLUMN["cycles"]] = latency
            matrix[rows, _FEATURE_COLUMN["delay"]] = float(
                prediction.get("iteration_latency", 0.0)
            )
            matrix[rows, _FEATURE_COLUMN["lut"]] = float(prediction.get("lut", 0.0))
            matrix[rows, _FEATURE_COLUMN["dsp"]] = float(prediction.get("dsp", 0.0))
            matrix[rows, _FEATURE_COLUMN["ff"]] = float(prediction.get("ff", 0.0))
            matrix[rows, _FEATURE_COLUMN["work"]] = (
                latency * template.work_invocations[label]
            )
        metadata = dict(template.metadata)
        metadata["config"] = config.describe()
        return GraphSample(
            optypes=template.optypes,
            features=matrix,
            edge_index=template.edge_index,
            loop_features=template.loop_features,
            metadata=metadata,
            graph_codes=template.graph_codes,
            graph_table=template.graph_table,
        )

    def predict_batch(
        self,
        function: IRFunction,
        configs: list[PragmaConfig | None],
        *,
        precision: str | None = None,
    ) -> list[dict[str, float]]:
        """Predict post-route QoR for a whole design space at once.

        Bit-identical to calling :meth:`predict` per configuration, but
        orders of magnitude cheaper: graphs are constructed once per pragma
        delta (see :class:`~repro.graph.cache.GraphConstructionCache`),
        every inner-loop unit of every configuration runs through one
        disjoint-union forward pass per inner model (GNNp / GNNnp), the
        predictions are scattered onto the super nodes of the condensed
        outer graphs, and one batched GNNg pass scores all distinct outer
        graphs.  ``precision`` (``"float32"``/``"float64"``) switches the
        inference tier first (see :meth:`set_precision`); ``None`` keeps the
        active tier.
        """
        if self.trainer_g is None:
            raise RuntimeError("the hierarchical model has not been trained")
        if precision is not None:
            self.set_precision(precision)
        resolved = [config or PragmaConfig() for config in configs]
        if not resolved:
            return []

        signatures = self._signatures(function, resolved)
        # ``served`` pins every metrics dict this call hands out: the memo is
        # LRU-bounded, so a batch larger than the remaining capacity could
        # evict its own early entries before the final scatter reads them
        served: dict[tuple, dict[str, float]] = {}
        seen: set[tuple] = set()
        pending: list[tuple[tuple, PragmaConfig]] = []
        for signature, config in zip(signatures, resolved):
            if signature in served or signature in seen:
                continue
            hit = self._prediction_cache.get(signature)
            if hit is not None:
                served[signature] = hit
                continue
            seen.add(signature)
            pending.append((signature, config))
        if not pending:
            return [dict(served[s]) for s in signatures]

        # 1-3) one annotated outer sample per pending design, then 4) one
        #    batched GNNg pass over them; memoize per design delta and
        #    scatter back onto the configuration order
        outputs = self.trainer_g.predict(
            self._outer_samples(function, pending),
            max_batch_nodes=self.MAX_BATCH_NODES,
        )
        for index, (signature, _) in enumerate(pending):
            metrics = {
                name: float(values[index]) for name, values in outputs.items()
            }
            self._prediction_cache[signature] = metrics
            served[signature] = metrics
        # hand out copies: callers may mutate their result dicts freely
        # without corrupting the memo
        return [dict(served[s]) for s in signatures]

    def _signatures(
        self, function: IRFunction, configs: list[PragmaConfig]
    ) -> list[tuple]:
        """Step 0: the pragma-delta signature of each configuration.

        No graphs are built: configurations with equal signatures are the
        same design, so one representative is decomposed and predicted, and
        memoized results are served without any construction at all.  The
        function enters the key via its content fingerprint, which is what
        lets a persisted memo (load_model with warm caches) serve
        post-restart sweeps.
        """
        fingerprint = self._graph_cache.fingerprint(function)
        return [
            (
                fingerprint,
                decomposition_signature(
                    function, config, self._graph_cache, library=self.library
                ),
            )
            for config in configs
        ]

    def _outer_samples(
        self, function: IRFunction, pending: list[tuple[tuple, PragmaConfig]]
    ) -> list[GraphSample]:
        """Steps 1-3: the annotated outer sample of each ``(signature, config)``."""
        fingerprint = self._graph_cache.fingerprint(function)
        # 1) resolve every pending design to its inner-unit keys and an
        #    outer sample template, decomposing only when the delta has never
        #    been seen.  A design whose outer template and unit samples are
        #    all cached is served without building or copying a single graph.
        pending_units: list[tuple[tuple[str, str], ...]] = []
        templates: list[_OuterSampleTemplate] = []
        for signature, config in pending:
            outer_key, signature_units = signature[1]
            template_key = (fingerprint, outer_key)
            template = self._outer_template_cache.get(template_key)
            units_known = all(
                (fingerprint, unit_key) in self._unit_sample_cache
                and (fingerprint, unit_key) in self._unit_pipelined
                for _, unit_key in signature_units
            )
            unit_keys = tuple(signature_units)
            if template is None or not units_known:
                # templates never annotate the outer graph, so the pristine
                # cached instance can be shared without a copy
                decomposition = decompose(
                    function, config, library=self.library,
                    cache=self._graph_cache, outer_copy=False,
                )
                for unit in decomposition.inner_units:
                    key = self._unit_key(function, unit)
                    self._unit_pipelined[key] = unit.pipelined
                    self._unit_sample(function, unit)
                if template is None:
                    template = _build_outer_template(decomposition.outer_graph)
                    self._outer_template_cache[template_key] = template
                unit_keys = tuple(
                    (unit.label, unit.cache_key)
                    for unit in decomposition.inner_units
                )
            pending_units.append(unit_keys)
            templates.append(template)

        # 2) unique inner-loop units across the pending designs, grouped by
        #    the trainer that scores them (GNNp / GNNnp with cross-fallback),
        #    then one batched forward per inner model
        groups: dict[int, tuple[GraphRegressorTrainer, list, list]] = {}
        grouped_keys: set[tuple[str, str]] = set()
        for unit_keys in pending_units:
            for _, unit_key in unit_keys:
                key = (fingerprint, unit_key)
                if key in grouped_keys:
                    continue
                grouped_keys.add(key)
                trainer = self._inner_trainer_for(self._unit_pipelined[key])
                _, keys, samples = groups.setdefault(id(trainer), (trainer, [], []))
                keys.append(key)
                samples.append(self._unit_sample_cache[key])
        inner_predictions: dict[tuple[str, str], dict[str, float]] = {}
        for trainer, keys, samples in groups.values():
            outputs = trainer.predict(samples, max_batch_nodes=self.MAX_BATCH_NODES)
            for index, key in enumerate(keys):
                inner_predictions[key] = {
                    name: float(values[index]) for name, values in outputs.items()
                }

        # 3) write the inner predictions onto each design's super nodes,
        #    straight into a copy of its template's feature matrix
        return [
            self._outer_sample_from_template(
                template, unit_keys, fingerprint, config, inner_predictions
            )
            for template, unit_keys, (_, config) in zip(
                templates, pending_units, pending
            )
        ]

    def evaluate(self, instances: list[DesignInstance]) -> dict[str, float]:
        """Whole-design MAPE of the hierarchical predictor over instances."""
        from repro.nn.losses import mape

        predictions: dict[str, list[float]] = {name: [] for name in self.GLOBAL_TARGETS}
        truths: dict[str, list[float]] = {name: [] for name in self.GLOBAL_TARGETS}
        # batch per kernel: instances of the same function share one
        # disjoint-union pass (and the construction cache)
        by_function: dict[int, list[DesignInstance]] = {}
        for instance in instances:
            by_function.setdefault(id(instance.function), []).append(instance)
        for group in by_function.values():
            predicted_list = self.predict_batch(
                group[0].function, [instance.config for instance in group]
            )
            for instance, predicted in zip(group, predicted_list):
                truth = application_targets(instance)
                for name in self.GLOBAL_TARGETS:
                    predictions[name].append(predicted[name])
                    truths[name].append(truth[name])
        return {
            name: mape(np.array(predictions[name]), np.array(truths[name]))
            for name in self.GLOBAL_TARGETS
        }


__all__ = [
    "HierarchicalModelConfig", "HierarchicalTrainingReport", "HierarchicalQoRModel",
]
