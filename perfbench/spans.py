"""Outside-in layer timers: spans recorded around the program's public calls.

The benchmark never edits the program.  It wraps the public functions that
mark each layer boundary, and it swaps each wrapper in *wherever a caller
looks the name up*: ``repro.core.hierarchical`` binds ``decompose``,
``decomposition_signature`` and ``graph_to_sample`` at import,
``repro.graph.hierarchy`` binds ``canonicalize_config`` and
``repro.core.trainer`` binds ``make_batch``, so a wrapper on the defining
module alone would time nothing.  :func:`install` therefore replaces every
``repro.*`` module attribute that is the original function object.

Each wrapped call appends one span to a per-thread buffer: layer, start,
end, the enclosing wrapped span, the operation (sweep or request) it belongs
to, and an optional work count (graphs, nodes, configs).  Spans stay in
memory and are written out with :meth:`Recorder.dump` when the process ends;
:func:`layer_totals` reduces them to busy time, self time (duration minus
the time child spans cover), call and work counts.

All timestamps come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC``
on Linux and therefore comparable between the benchmark, the serve daemon
and the fleet workers: spans from every process are filtered by the same
set-up and timed windows.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

#: operation (sweep index or request id) new spans are attributed to
OP_ID: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_op", default=-1)


def _decomposition_nodes(args, kwargs, result) -> int:
    return result.outer_graph.num_nodes + sum(
        unit.subgraph.num_nodes for unit in result.inner_units
    )


def _sample_count(args, kwargs, result) -> int:
    samples = kwargs.get("samples", args[1] if len(args) > 1 else ())
    return len(samples)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _batch_nodes(args, kwargs, result) -> int:
    return int(result.num_nodes)


def _sweep_layer(args, kwargs) -> str:
    return "dse.steal_sweep" if args[0].work_stealing else "dse.fixed_sweep"


def _request_id(args, kwargs, result) -> int:
    """decode_message: attribute this request's later spans to its id."""
    request_id = result.get("id") if isinstance(result, dict) else None
    if isinstance(request_id, int):
        OP_ID.set(request_id)
        return request_id
    return -1


#: (defining module, attribute path, layer name or chooser, work counter).
#: The layer names are the prefixes of the per-layer metrics in
#: ``metrics.PER_LAYER``.
TARGETS = (
    ("repro.core.hierarchical", "HierarchicalQoRModel.predict_batch",
     "core.predict_batch", _result_len),
    ("repro.core.hierarchical", "HierarchicalQoRModel.fit", "core.fit", None),
    ("repro.core.trainer", "GraphRegressorTrainer.predict",
     "core.trainer_predict", _sample_count),
    ("repro.core.dataset", "graph_to_sample", "core.graph_to_sample", None),
    ("repro.core.predictor", "QoRPredictor.load", "core.load", None),
    ("repro.graph.hierarchy", "decompose", "graph.decompose", _decomposition_nodes),
    ("repro.graph.hierarchy", "decomposition_signature", "graph.signature", None),
    ("repro.hls.directives", "canonicalize_config", "hls.canonicalize", None),
    ("repro.hls.flow", "run_full_flow", "hls.flow", None),
    ("repro.nn.data", "make_batch", "nn.make_batch", _batch_nodes),
    ("repro.ir.builder", "lower_source", "ir.lower", None),
    ("repro.dse.space", "enumerate_design_space", "dse.enumerate", None),
    ("repro.dse.space", "sample_design_space", "dse.enumerate", None),
    ("repro.dse.space", "DesignSpace.dedup", "dse.dedup", None),
    ("repro.dse.pareto", "pareto_front", "dse.pareto", None),
    ("repro.dse.pareto", "merge_fronts", "dse.pareto", None),
    ("repro.dse.sharding", "ShardedExplorer.explore", _sweep_layer, None),
    ("repro.dse.checkpoint", "save_checkpoint", "dse.checkpoint_save", None),
    ("repro.core.predictor", "QoRPredictor.predict_source_batch",
     "serve.inference", _result_len),
    ("repro.core.predictor", "QoRPredictor.canonical_signature",
     "serve.signature", None),
    ("repro.serve.protocol", "decode_message", "serve.protocol", _request_id),
    ("repro.serve.protocol", "config_from_payload", "serve.protocol", None),
    ("repro.serve.protocol", "encode_message", "serve.protocol", None),
)

#: modules imported before patching, so every import-time binding exists
_BINDING_MODULES = (
    "repro.cli", "repro.core", "repro.dse", "repro.serve.server",
    "repro.serve.batcher",
)


class _Buffer:
    """One thread's spans, as parallel typed arrays (compact, append-only)."""

    __slots__ = ("layer", "start", "end", "parent", "op", "work", "nested",
                 "stack", "depth")

    def __init__(self) -> None:
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.work = array("q")
        self.nested = array("b")
        self.stack: list[int] = []
        self.depth: dict[int, int] = {}


class Recorder:
    """In-memory span store of one process (thread-safe by per-thread buffers)."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def layer_id(self, name: str) -> int:
        with self._lock:
            if name not in self._layer_ids:
                self._layer_ids[name] = len(self.layers)
                self.layers.append(name)
            return self._layer_ids[name]

    def buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            self._local.buffer = buffer
        return buffer

    def reset(self) -> None:
        """Forget every span (a forked worker drops its parent's copy)."""
        with self._lock:
            self._buffers = []
            self._local = threading.local()

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes into the same arrays."""
        with self._lock:
            buffers = list(self._buffers)
        parts: dict[str, list[np.ndarray]] = {
            key: [] for key in ("layer", "start", "end", "parent", "op", "work", "nested")
        }
        offset = 0
        for buffer in buffers:
            count = min(len(buffer.start), len(buffer.end), len(buffer.nested))
            parent = np.frombuffer(buffer.parent, dtype=np.int64)[:count].copy()
            parent[parent >= 0] += offset
            parts["parent"].append(parent)
            for key, dtype in (("layer", np.int32), ("start", np.float64),
                               ("end", np.float64), ("op", np.int64),
                               ("work", np.int64), ("nested", np.int8)):
                parts[key].append(
                    np.frombuffer(getattr(buffer, key), dtype=dtype)[:count].copy()
                )
            offset += count
        return {
            key: (np.concatenate(chunks) if chunks else np.zeros(0))
            for key, chunks in parts.items()
        }

    def dump(self, path: str | Path, **extra) -> None:
        """Write the spans (and JSON-able ``extra`` fields) to an ``.npz``."""
        np.savez(
            path, layers=np.array(self.layers, dtype=str),
            extra=np.array(json.dumps(extra)), **self.arrays(),
        )


def load_spans(path: str | Path) -> tuple[dict[str, np.ndarray], list[str], dict]:
    """Inverse of :meth:`Recorder.dump`: ``(arrays, layer names, extra)``."""
    with np.load(path) as data:
        arrays = {key: data[key] for key in
                  ("layer", "start", "end", "parent", "op", "work", "nested")}
        return arrays, [str(name) for name in data["layers"]], json.loads(str(data["extra"]))


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


def _timed(recorder: Recorder, function, layer, work):
    fixed_id = recorder.layer_id(layer) if isinstance(layer, str) else None

    @functools.wraps(function)
    def timed(*args, **kwargs):
        layer_id = fixed_id
        if layer_id is None:
            layer_id = recorder.layer_id(layer(args, kwargs))
        buffer = recorder.buffer()
        index = len(buffer.start)
        depth = buffer.depth.get(layer_id, 0)
        buffer.layer.append(layer_id)
        buffer.parent.append(buffer.stack[-1] if buffer.stack else -1)
        buffer.op.append(OP_ID.get())
        buffer.work.append(0)
        buffer.nested.append(1 if depth else 0)
        buffer.end.append(0.0)
        buffer.depth[layer_id] = depth + 1
        buffer.stack.append(index)
        buffer.start.append(time.perf_counter())
        try:
            result = function(*args, **kwargs)
        finally:
            buffer.end[index] = time.perf_counter()
            buffer.stack.pop()
            buffer.depth[layer_id] = depth
        if work is not None:
            buffer.work[index] = work(args, kwargs, result)
        return result

    return timed


class Patches:
    """The wrappers :func:`install` swapped in; :meth:`undo` restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None


#: the patches of this process, read by the fleet-worker entry wrappers
_ACTIVE: Patches | None = None


def install(recorder: Recorder) -> Patches:
    """Wrap every :data:`TARGETS` function wherever ``repro`` binds it."""
    global _ACTIVE
    for name in _BINDING_MODULES:
        importlib.import_module(name)
    patches = Patches(recorder)
    for module_name, path, layer, work in TARGETS:
        owner, attribute = _resolve(module_name, path)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            patches.set(owner, attribute,
                        classmethod(_timed(recorder, raw.__func__, layer, work)))
            continue
        wrapper = _timed(recorder, raw, layer, work)
        if isinstance(owner, type):
            patches.set(owner, attribute, wrapper)
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for binding, value in list(module.__dict__.items()):
                if value is raw:
                    patches.set(module, binding, wrapper)
    _ACTIVE = patches
    return patches


# --------------------------------------------------------------------------- #
# fleet workers
# --------------------------------------------------------------------------- #
#: environment variables the coordinator sets for its workers
WORKER_DIR_ENV = "PERFBENCH_WORKER_DIR"
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE"


def rss_mib(pid: int | str = "self", field: str = "VmRSS") -> float:
    """A resident-set size field of ``/proc/<pid>/status``, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(f"{field}:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def peak_rss_mib(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    return rss_mib(pid, "VmHWM")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time of a process (all its threads), in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state, field 3 of proc(5); utime and stime are 14, 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class _ReportingQueue:
    """A worker's result queue that files the worker's report first.

    The coordinator terminates workers still alive once every final message
    is in, so a report written after the entrypoint returns could be cut
    short; it is written just before the final ``done``/``error`` message.
    """

    def __init__(self, queue, report) -> None:
        self._queue = queue
        self._report = report

    def put(self, message, *args, **kwargs) -> None:
        if message[0] in ("done", "error"):
            self._report()
        self._queue.put(message, *args, **kwargs)


def _run_worker(entry: str, args, kwargs):
    """Run a fleet worker entrypoint that reports back to the coordinator.

    The report holds how far the worker's peak RSS rose above its RSS at
    start and, when tracing, its spans.  A forked worker starts with its
    parent's resident pages (and its ``VmHWM`` at their size), so only the
    growth is the worker's own.  In a forked worker the parent's wrappers are
    already in place and only the inherited spans are dropped; a spawned
    worker installs its own.
    """
    from repro.dse import sharding

    start_rss = rss_mib()
    out_dir = Path(os.environ[WORKER_DIR_ENV])
    tracing = os.environ.get(WORKER_TRACE_ENV) == "1"
    patches = _ACTIVE
    if tracing and patches is None:
        patches = install(Recorder())
    if patches is not None:
        patches.recorder.reset()

    def report() -> None:
        stem = out_dir / f"worker-{os.getpid()}"
        extra = {"pid": os.getpid(), "rss_growth_mib": peak_rss_mib() - start_rss}
        if tracing:
            patches.recorder.dump(f"{stem}.tmp.npz", **extra)
            os.replace(f"{stem}.tmp.npz", f"{stem}.npz")
        else:
            Path(f"{stem}.tmp").write_text(json.dumps(extra))
            os.replace(f"{stem}.tmp", f"{stem}.json")

    original = _ORIGINAL_ENTRIES.get(entry) or getattr(sharding, entry)
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.arguments["results"] = _ReportingQueue(bound.arguments["results"], report)
    return original(*bound.args, **bound.kwargs)


def traced_shard_worker(*args, **kwargs):
    """Stand-in for ``repro.dse.sharding.shard_worker`` (module-level: picklable)."""
    return _run_worker("shard_worker", args, kwargs)


def traced_stealing_worker(*args, **kwargs):
    """Stand-in for ``repro.dse.sharding.stealing_worker``."""
    return _run_worker("stealing_worker", args, kwargs)


_ORIGINAL_ENTRIES: dict[str, object] = {}


def hook_fleet_workers(out_dir: Path, tracing: bool) -> Patches:
    """Route the coordinator's worker processes through :func:`_run_worker`."""
    from repro.dse import sharding

    os.environ[WORKER_DIR_ENV] = str(out_dir)
    os.environ[WORKER_TRACE_ENV] = "1" if tracing else "0"
    hooks = Patches(Recorder())
    for entry, stand_in in (("shard_worker", traced_shard_worker),
                            ("stealing_worker", traced_stealing_worker)):
        _ORIGINAL_ENTRIES[entry] = sharding.__dict__[entry]
        hooks.set(sharding, entry, stand_in)
    return hooks


def collect_worker_reports(out_dir: Path) -> list[dict]:
    """Read and delete the reports workers left in ``out_dir``."""
    reports = []
    for path in sorted(out_dir.glob("worker-*")):
        if path.name.endswith((".tmp", ".tmp.npz")):
            pass  # a worker cut off mid-write
        elif path.suffix == ".json":
            reports.append({"extra": json.loads(path.read_text())})
        elif path.suffix == ".npz":
            arrays, layers, extra = load_spans(path)
            reports.append({"extra": extra, "arrays": arrays, "layers": layers})
        path.unlink()
    return reports


# --------------------------------------------------------------------------- #
# reduction
# --------------------------------------------------------------------------- #
def layer_totals(
    arrays: dict[str, np.ndarray],
    layers: list[str],
    window: tuple[float, float] | None = None,
) -> dict[str, dict[str, float]]:
    """Busy/self seconds, calls and work per layer, for spans inside ``window``.

    Busy time counts only spans with no enclosing span of the same layer, so
    a layer that calls itself is not counted twice; self time subtracts the
    time the span's direct children cover.
    """
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    if not len(start):
        return {}
    duration = np.where(end >= start, end - start, 0.0)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent],
                        minlength=len(start))
    self_time = duration - child
    keep = end >= start
    if window is not None:
        keep &= (start >= window[0]) & (end <= window[1])
    totals: dict[str, dict[str, float]] = {}
    layer_ids = arrays["layer"]
    outer = arrays["nested"] == 0
    for layer_id in np.unique(layer_ids[keep]):
        mask = keep & (layer_ids == layer_id)
        totals[layers[int(layer_id)]] = {
            "busy": float(duration[mask & outer].sum()),
            "self": float(self_time[mask].sum()),
            "calls": int(mask.sum()),
            "work": int(arrays["work"][mask].sum()),
        }
    return totals


def merge_totals(*parts: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Sum per-layer totals from several processes."""
    merged: dict[str, dict[str, float]] = {}
    for part in parts:
        for layer, fields in part.items():
            slot = merged.setdefault(layer, {"busy": 0.0, "self": 0.0,
                                             "calls": 0, "work": 0})
            for key, value in fields.items():
                slot[key] += value
    return merged


class Tracer:
    """A traced run: this process's recorder and wrappers, plus the spans
    other processes (daemon, fleet workers) handed back."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.patches: Patches | None = install(self.recorder)
        self._sources: list[tuple[dict[str, np.ndarray], list[str]]] = []

    def suspend(self) -> None:
        """Restore the unwrapped program (spans so far are kept)."""
        if self.patches is not None:
            self.patches.undo()
            self.patches = None

    def resume(self) -> None:
        if self.patches is None:
            self.patches = install(self.recorder)

    def close(self) -> None:
        self.suspend()

    def add_source(self, arrays: dict[str, np.ndarray], layers: list[str]) -> None:
        self._sources.append((arrays, layers))

    def totals(self, windows: list[tuple[float, float]]) -> dict[str, dict[str, float]]:
        """Per-layer totals of every process's spans inside ``windows``."""
        sources = [(self.recorder.arrays(), self.recorder.layers), *self._sources]
        return merge_totals(*(
            layer_totals(arrays, layers, window)
            for arrays, layers in sources for window in windows
        ))

    def dump(self, path: Path) -> None:
        """Write this process's spans and every collected source to one file."""
        parts = {"self": (self.recorder.arrays(), self.recorder.layers)}
        for number, source in enumerate(self._sources):
            parts[f"source{number}"] = source
        payload = {}
        for prefix, (arrays, layers) in parts.items():
            payload[f"{prefix}.layers"] = np.array(layers, dtype=str)
            payload.update({f"{prefix}.{key}": value for key, value in arrays.items()})
        np.savez_compressed(path, **payload)
