"""A small reverse-mode automatic differentiation engine on numpy arrays.

This replaces PyTorch for the purposes of the reproduction: it provides the
minimal set of differentiable primitives needed to express MLPs and the five
message-passing GNN architectures used in the paper (GCN, GAT, GraphSAGE,
TransformerConv, PNA), including the segment (scatter/gather) operations that
graph message passing is built from.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` (``float64`` or ``float32`` — the
  precision *tier*, see :mod:`repro.flags`; float64 is the bit-identical
  default), remembers the tensors it was computed from and a closure that
  accumulates gradients into them.  Kernels propagate the dtype of their
  inputs; the ``precision`` context governs only arrays created from scalars
  or lists, so mixing tiers by accident is impossible.
* Broadcasting in ``+``/``*``/``-``/``/`` is supported; gradients are summed
  over the broadcast axes.
* ``backward()`` runs a topological sort and applies the chain rule; only
  tensors created with ``requires_grad=True`` (parameters) and intermediate
  results keep gradients.
"""

from __future__ import annotations

import ctypes
import weakref
from collections import OrderedDict
from typing import Callable, Iterable

import numpy as np

from repro.flags import active_precision, precision

try:  # optional: the scatter ops fall back to pure numpy without scipy
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - scipy is present in CI and dev envs
    _scipy_sparse = None

Array = np.ndarray

#: numpy dtype per precision tier (see :mod:`repro.flags`)
PRECISION_DTYPES = {"float64": np.dtype(np.float64), "float32": np.dtype(np.float32)}

_FLOAT_DTYPES = tuple(PRECISION_DTYPES.values())


def active_dtype() -> np.dtype:
    """The numpy dtype of the context's precision tier."""
    return PRECISION_DTYPES[active_precision()]


def _as_array(value) -> Array:
    # float32/float64 arrays (and numpy float scalars, e.g. a float32
    # ``.sum()`` result) keep their dtype: weights are cast once at load and
    # inputs propagate.  Everything else — python scalars, lists, integer
    # arrays — adopts the context's precision tier (float64 by default,
    # bit-identical to the pre-tiered behavior).
    if isinstance(value, (np.ndarray, np.floating)):
        value = np.asarray(value)
        if value.dtype in _FLOAT_DTYPES:
            return value
        return value.astype(PRECISION_DTYPES[active_precision()], copy=False)
    return np.asarray(value, dtype=PRECISION_DTYPES[active_precision()])


def _scalar_operand(value, dtype: np.dtype) -> "Tensor":
    """Wrap a non-Tensor binary-op operand, matching the Tensor's dtype.

    Python scalars and lists adopt the other operand's dtype so a float32
    graph is never silently upcast to float64 by a literal like ``+ 1e-12``.
    For float64 operands this is exactly the old ``Tensor(other)`` behavior.
    """
    return Tensor(np.asarray(value, dtype=dtype))


class _ScatterIndexCache:
    """Memoizes per-segment-id-array quantities used by the scatter ops.

    A GNN forward pass scatters along the *same* destination-row array once
    per layer (and once more per layer on the backward pass), and replayed
    training batches reuse their arrays across epochs, so everything
    derivable from the id array alone — the flat ``ids * num_cols + col``
    index of the bincount path, the segment boundaries of the sorted
    ``reduceat`` fast path, the per-segment counts of :func:`segment_mean` —
    is paid many times per array.  Entries are keyed by ``id(ids)`` (plus a
    discriminator) and validated through a weak reference so a recycled
    ``id`` can never alias a dead array; eviction is LRU.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, tuple[weakref.ref, object]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _freeze(value):
        """Mark memoized buffers read-only so shared-cache mutation fails loudly.

        Cached arrays are handed to many forward passes; a caller writing
        into one would silently corrupt every later sweep.  Freezing costs
        nothing on the hot path (consumers only read) and turns that
        corruption into an immediate ``ValueError``.
        """
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, np.ndarray):
                    item.setflags(write=False)
        elif _scipy_sparse is not None and _scipy_sparse.issparse(value):
            value.data.setflags(write=False)
        return value

    def _memo(self, ids: Array, key: tuple, compute):
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is ids:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        value = self._freeze(compute())
        try:
            ref = weakref.ref(ids)
        except TypeError:  # pragma: no cover - ndarrays are weakref-able
            return value
        entries = self._entries
        for stale_key in [k for k, v in entries.items() if v[0]() is None]:
            del entries[stale_key]
        while len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = (ref, value)
        return value

    def flat_ids(self, ids: Array, num_cols: int) -> Array:
        """The flat scatter index for ``ids`` over ``num_cols`` columns."""
        return self._memo(
            ids, (id(ids), "flat", num_cols),
            lambda: (ids[:, None] * num_cols + np.arange(num_cols)[None, :]).ravel(),
        )

    def sorted_segments(self, ids: Array):
        """``(starts, present)`` for ascending ``ids``, else ``None``.

        ``starts`` are the first row of each run of equal ids (the offsets
        handed to ``np.add.reduceat`` / ``np.maximum.reduceat``) and
        ``present`` the segment id of each run.  Sorted segment ids — batch
        vectors always, edge destinations once ``make_batch`` orders the
        union edges — turn a scatter into one sequential ``reduceat`` pass
        with no flat-index construction and no random-access writes.
        """
        def compute():
            if ids.size == 0 or not bool((ids[1:] >= ids[:-1]).all()):
                return None
            starts = np.flatnonzero(np.diff(ids, prepend=-1))
            return starts, ids[starts]

        return self._memo(ids, (id(ids), "sorted"), compute)

    def segment_counts(
        self, ids: Array, num_segments: int, dtype: np.dtype = np.dtype(np.float64)
    ) -> Array:
        """Clamped-to->=1 member count per segment (for :func:`segment_mean`)."""
        return self._memo(
            ids, (id(ids), "counts", num_segments, dtype.char),
            lambda: np.maximum(
                np.bincount(ids, minlength=num_segments).astype(dtype), 1.0
            ),
        )

    def mean_edge_weights(
        self, ids: Array, num_segments: int, dtype: np.dtype = np.dtype(np.float64)
    ) -> Array:
        """Per-edge ``1 / count(dst)`` weights, memoized per id array.

        Folding these into the fused gather-scatter operator turns SAGE's
        mean aggregation into a single weighted CSR product — the division
        happens per *edge* inside the accumulation instead of per node
        afterwards (same value within float rounding), removing one
        union-sized multiply and temporary per layer.
        """
        return self._memo(
            ids, (id(ids), "mean_weights", num_segments, dtype.char),
            lambda: (1.0 / self.segment_counts(ids, num_segments, dtype))[ids],
        )

    def scatter_matrix(
        self, ids: Array, num_segments: int, dtype: np.dtype = np.dtype(np.float64)
    ):
        """Sparse ``(num_segments, len(ids))`` row-gather operator, or ``None``.

        ``matrix @ values`` performs the scatter-add as one CSR
        matrix-multiply — 2-3x faster than the flat bincount and
        **bit-identical** to it: the CSR column indices enumerate each
        segment's rows in their original order (a stable grouping), so every
        output element accumulates its contributions in exactly the
        bincount scan order.  Requires scipy; callers fall back to the flat
        path when it is absent.
        """
        if _scipy_sparse is None:
            return None

        def compute():
            length = ids.shape[0]
            counts = np.bincount(ids, minlength=num_segments)
            indptr = np.zeros(num_segments + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            if bool((ids[1:] >= ids[:-1]).all()):
                indices = np.arange(length, dtype=np.int64)
            else:
                indices = np.argsort(ids, kind="stable").astype(np.int64)
            return _scipy_sparse.csr_matrix(
                (np.ones(length, dtype=dtype), indices, indptr),
                shape=(num_segments, length),
            )

        return self._memo(ids, (id(ids), "csr", num_segments, dtype.char), compute)

    def adjacency(
        self,
        src: Array,
        dst: Array,
        num_segments: int,
        num_sources: int,
        weights: Array | None = None,
        dtype: np.dtype = np.dtype(np.float64),
    ):
        """Cached fused gather-scatter operator, or ``None`` without scipy.

        The returned dict's ``"forward"`` entry is the
        ``(num_segments, num_sources)`` CSR matrix whose product with ``x``
        equals ``segment_sum(x.gather_rows(src) [* weights], dst)`` —
        bit-identically, because duplicate ``(src, dst)`` pairs are kept as
        separate entries in edge order.  The backward transpose is built
        lazily under the ``"transpose"`` key by the op's backward closure.
        """
        if _scipy_sparse is None:
            return None
        key = (
            id(dst), "adj", id(src), num_segments, num_sources,
            -1 if weights is None else id(weights), dtype.char,
        )

        def compute():
            length = dst.shape[0]
            counts = np.bincount(dst, minlength=num_segments)
            indptr = np.zeros(num_segments + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            data = np.ones(length, dtype=dtype) if weights is None else np.array(
                weights, dtype=dtype
            ).reshape(length)
            if length and not bool((dst[1:] >= dst[:-1]).all()):
                order = np.argsort(dst, kind="stable")
                indices = src[order].astype(np.int64)
                data = data[order]
            else:
                indices = np.asarray(src, dtype=np.int64)
            matrices = {
                "forward": _scipy_sparse.csr_matrix(
                    (data, indices, indptr), shape=(num_segments, num_sources)
                )
            }
            # the enclosing tuple hides the CSR from _freeze; freeze its
            # data buffer here (same shared-cache-mutation guarantee)
            matrices["forward"].data.setflags(write=False)
            # the memo validates only the keying (dst) array; pin the other
            # participants with their own weak references so a recycled src
            # or weights id can be detected below
            return (
                weakref.ref(src),
                None if weights is None else weakref.ref(weights),
                matrices,
            )

        ref_src, ref_weights, matrices = self._memo(dst, key, compute)
        if ref_src() is not src or (
            ref_weights is not None and ref_weights() is not weights
        ):
            self._entries.pop(key, None)
            ref_src, ref_weights, matrices = self._memo(dst, key, compute)
        return matrices

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current occupancy."""
        return {
            "scatter_index_hits": self.hits,
            "scatter_index_misses": self.misses,
            "scatter_index_evictions": self.evictions,
            "scatter_index_entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


#: process-wide memo shared by every scatter-add call
SCATTER_INDEX_CACHE = _ScatterIndexCache()


def _scatter_add(ids: Array, values: Array, num_segments: int) -> Array:
    """Scatter-add rows of ``values`` into ``num_segments`` buckets.

    Implemented as one flat-index ``bincount`` over ``ids * num_cols + col``
    (much faster than ``np.add.at`` and than a per-column Python loop): the
    whole (rows, features) block collapses into a single C-level pass.  Shared
    by :meth:`Tensor.gather_rows`'s backward and every ``segment_*`` op.  The
    flat index array is memoized per ``(ids, num_cols)`` (see
    :class:`_ScatterIndexCache`), leaving the steady state with no index
    temporaries at all.
    """
    if values.ndim == 1:
        # bincount accumulates in float64; cast back so float32 graphs stay
        # float32 end to end (no-op copy for float64 inputs)
        return np.bincount(ids, weights=values, minlength=num_segments).astype(
            values.dtype, copy=False
        )
    num_cols = int(np.prod(values.shape[1:]))
    if num_cols == 0 or ids.size == 0:
        return np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    if values.ndim == 2:
        matrix = SCATTER_INDEX_CACHE.scatter_matrix(ids, num_segments, values.dtype)
        if matrix is not None:
            return matrix @ values
    flat_ids = SCATTER_INDEX_CACHE.flat_ids(ids, num_cols)
    out = np.bincount(
        flat_ids,
        weights=values.reshape(ids.shape[0], num_cols).ravel(),
        minlength=num_segments * num_cols,
    )
    return out.reshape((num_segments,) + values.shape[1:]).astype(
        values.dtype, copy=False
    )


#: rows per GEMM in :func:`_stable_matmul` (64 and 256 are as invariant;
#: 128 was the fastest on union-sized products)
MATMUL_BLOCK_ROWS = 128


def _stable_matmul(a: Array, b: Array) -> Array:
    """``a @ b`` whose rows do not depend on how many rows share the product.

    BLAS picks its kernel, and with it the accumulation order, by the row
    count M, so the same row can come out last-ulp different alone and in
    a taller matrix (on OpenBLAS 0.3.31, float64 rows move with M for
    N <= 3 at K >= 16 and for every N at K >= 512).  A design's prediction
    must not depend on what it is batched with (see "Batch invariance" in
    ``docs/ARCHITECTURE.md``), so every product runs in fixed-height row
    blocks: one ``np.matmul`` over the ``(full // B, B, K)`` view plus one
    zero-padded tail block, each a GEMM of exactly
    :data:`MATMUL_BLOCK_ROWS` rows.  A single column (N = 1, the scalar
    regression heads) would run as GEMV, whose sums differ from GEMM's, so
    it is duplicated and the copy dropped: a lone column then matches the
    same column inside a wider product.
    """
    if a.ndim != 2 or b.ndim != 2:
        return a @ b
    if b.shape[1] == 1:
        return _stable_matmul(a, np.concatenate([b, b], axis=1))[:, :1]
    rows, inner = a.shape
    block = MATMUL_BLOCK_ROWS
    full = rows - rows % block
    out = np.empty((rows, b.shape[1]), dtype=np.result_type(a, b))
    if full:
        np.matmul(
            a[:full].reshape(full // block, block, inner), b,
            out=out[:full].reshape(full // block, block, b.shape[1]),
        )
    if full < rows:
        tail = np.zeros((block, inner), dtype=a.dtype)
        tail[: rows - full] = a[full:]
        out[full:] = (tail @ b)[: rows - full]
    return out


#: thread-count entry points of the OpenBLAS builds numpy and scipy ship
#: (``%s`` is ``get`` or ``set``; numpy 2's ILP64 build exports
#: ``scipy_openblas_set_num_threads64_``)
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                            "openblas_%s_num_threads64_", "openblas_%s_num_threads")


def blas_threads(count: int | None = None) -> int | None:
    """OpenBLAS's thread-pool size in this process, after setting it to ``count``.

    Every OpenBLAS library mapped into the process (``/proc/self/maps``) is
    driven through ctypes, so this adds no dependency; with several loaded,
    the largest pool is returned.  Returns ``None``, and sets nothing, where
    no OpenBLAS is loaded.  The pool size is process-wide.  Inference outputs
    are bit-identical at pool size 1 and at the host default
    (``tests/nn/test_blas_threads.py`` pins it per conv type and precision
    tier), but float64 *training* bits are not, so only the processes the
    program starts for inference alone — fleet workers and the
    ``repro-qor serve`` daemon — set it, to 1.  The count 1 is written to
    OpenBLAS's exported ``blas_cpu_number`` rather than passed to the
    setter: in a forked child (whose pool the fork shut down) the setter
    first starts a pool thread, which spin-waits ~0.1 s of CPU before it
    parks, and a fleet's workers would take that CPU from each other.  A
    larger count goes through the setter, which starts the pool again.
    """
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    sizes = []
    # a library replaced on disk maps as "... libopenblas.so (deleted)"
    for path in (path for path in paths if ".so" in path):
        library = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, symbol % "get"):
                get, put = getattr(library, symbol % "get"), getattr(library, symbol % "set")
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                if count == 1 and hasattr(library, "blas_cpu_number"):
                    # one thread needs no pool, and the setter would start
                    # one in a forked child, spinning ~0.1 s of CPU
                    ctypes.c_int.in_dll(library, "blas_cpu_number").value = 1
                elif count is not None:
                    put(count)
                sizes.append(get())
                break
    return max(sizes, default=None)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # sum over leading extra dimensions
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum over axes that were size 1 in the original shape
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable multi-dimensional array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[Array], None] | None = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> Array:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # autograd machinery
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: Array) -> None:
        # first contribution: copy instead of zero-fill + add (one pass, one
        # temporary fewer); later contributions accumulate in place into the
        # owned buffer
        if self.grad is None:
            if grad.shape == self.data.shape:
                self.grad = grad.copy()
            else:
                self.grad = np.zeros_like(self.data) + grad
        else:
            self.grad += grad

    @property
    def _needs_graph(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def backward(self, grad: Array | None = None) -> None:
        """Back-propagate from this tensor (must be scalar if ``grad`` absent)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        # topological order of the computation graph
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            other = _scalar_operand(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other._needs_graph:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(-grad)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def __sub__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            other = _scalar_operand(other, self.data.dtype)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return _scalar_operand(other, self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            other = _scalar_operand(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other._needs_graph:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            other = _scalar_operand(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other._needs_graph:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _scalar_operand(other, self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        out_data = _stable_matmul(self.data, other.data)

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad @ other.data.T)
            if other._needs_graph:
                other._accumulate(self.data.T @ grad)

        return Tensor(out_data, _parents=(self, other), _backward=backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * out_data)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-12))

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad / np.maximum(self.data, 1e-12))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * sign)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def relu(self) -> "Tensor":
        # single clamp pass; the mask is only materialized on backward, so
        # inference pays one allocation instead of three
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * (self.data > 0))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        # np.where over two python scalars yields float64; pin the mask to
        # the input dtype so float32 attention graphs stay float32
        mask = np.where(self.data > 0, 1.0, negative_slope).astype(
            self.data.dtype, copy=False
        )
        out_data = self.data * mask

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * mask)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    # ------------------------------------------------------------------ #
    # reductions / shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: Array) -> None:
            if not self._needs_graph:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original_shape = self.shape

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad.reshape(original_shape))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(grad.T)

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def gather_rows(self, index: Array) -> "Tensor":
        """Select rows: ``out[i] = self[index[i]]`` (differentiable)."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]

        def backward(grad: Array) -> None:
            if self._needs_graph:
                self._accumulate(_scatter_add(index, grad, self.data.shape[0]))

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def slice_cols(self, start: int, stop: int) -> "Tensor":
        out_data = self.data[:, start:stop]

        def backward(grad: Array) -> None:
            if self._needs_graph:
                accumulated = np.zeros_like(self.data)
                accumulated[:, start:stop] = grad
                self._accumulate(accumulated)

        return Tensor(out_data, _parents=(self,), _backward=backward)


# --------------------------------------------------------------------------- #
# free functions
# --------------------------------------------------------------------------- #
def concat(tensors: Iterable[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: Array) -> None:
        offset = 0
        for tensor, size in zip(tensors, sizes):
            if tensor._needs_graph:
                slicer: list = [slice(None)] * grad.ndim
                slicer[axis] = slice(offset, offset + size)
                tensor._accumulate(grad[tuple(slicer)])
            offset += size

    return Tensor(out_data, _parents=tuple(tensors), _backward=backward)


def segment_sum(values: Tensor, segment_ids: Array, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets (scatter-add)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = _scatter_add(segment_ids, values.data, num_segments)

    def backward(grad: Array) -> None:
        if values._needs_graph:
            values._accumulate(grad[segment_ids])

    return Tensor(out_data, _parents=(values,), _backward=backward)


def gather_scatter_sum(
    x: Tensor,
    src: Array,
    dst: Array,
    num_segments: int,
    weights: Array | None = None,
) -> Tensor | None:
    """Fused ``segment_sum(x.gather_rows(src) [* weights], dst)``.

    One cached CSR matrix-multiply replaces the gather copy, the optional
    per-edge weighting temporary and the scatter — the dominant per-layer
    memory traffic of message passing — with bit-identical results (entries
    are ordered exactly as the unfused accumulation visits them).  The
    backward pass is the transposed operator (built lazily, so
    inference-only sweeps never pay for it).  Returns ``None`` when the
    fused path is unavailable (no scipy, or non-2D features); callers fall
    back to the composed ops.
    """
    if _scipy_sparse is None or x.data.ndim != 2:
        return None
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    matrices = SCATTER_INDEX_CACHE.adjacency(
        src, dst, num_segments, x.data.shape[0], weights, x.data.dtype
    )
    if matrices is None:
        return None
    out_data = matrices["forward"] @ x.data

    def backward(grad: Array) -> None:
        if x._needs_graph:
            transpose = matrices.get("transpose")
            if transpose is None:
                transpose = matrices["forward"].T.tocsr()
                matrices["transpose"] = transpose
            x._accumulate(transpose @ grad)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def embedding_linear(
    codes: Array,
    numeric: Array,
    weight: Tensor,
    bias: Tensor | None,
    split: int,
) -> Tensor:
    """First-layer encoding as an embedding gather folded into ``weight``.

    Computes ``dense @ weight (+ bias)`` where ``dense`` is the elided
    ``[one-hot(codes, split) | numeric]`` node matrix — without ever
    materializing the one-hot block: rows ``weight[:split]`` act as the
    ``(n_optypes, hidden)`` embedding table (one gather per node replaces
    each node's one-hot product, since a one-hot row times a matrix *is* a
    row lookup), and the numeric block multiplies ``weight[split:]`` as a
    small GEMM accumulated in place on top of the gathered rows.

    ``numeric`` is a plain array (union buffers never require gradients);
    gradients flow to ``weight`` — a scatter-add over the codes for the
    table rows, ``numericᵀ @ grad`` for the rest — and to ``bias``, exactly
    the expressions the dense product would produce.
    """
    codes = np.asarray(codes, dtype=np.int64)
    weight_data = weight.data
    # the numeric block follows the weight dtype so a float32 model never
    # silently runs its first-layer GEMM in float64
    if numeric.dtype != weight_data.dtype:
        numeric = numeric.astype(weight_data.dtype)
    out_data = weight_data[codes]
    if numeric.shape[1]:
        np.add(out_data, _stable_matmul(numeric, weight_data[split:]), out=out_data)
    if bias is not None:
        np.add(out_data, bias.data, out=out_data)

    def backward(grad: Array) -> None:
        if weight._needs_graph:
            weight_grad = np.zeros_like(weight_data)
            if codes.size:
                weight_grad[:split] = _scatter_add(codes, grad, split)
            if numeric.shape[1]:
                weight_grad[split:] = numeric.T @ grad
            weight._accumulate(weight_grad)
        if bias is not None and bias._needs_graph:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))

    parents = (weight,) if bias is None else (weight, bias)
    return Tensor(out_data, _parents=parents, _backward=backward)


def linear_sum(
    a: Tensor, weight_a: Tensor, bias_a: Tensor | None,
    b: Tensor, weight_b: Tensor, bias_b: Tensor | None,
) -> Tensor:
    """``linear(a, Wa, ba) + linear(b, Wb, bb)`` as one fused node.

    Value-for-value the composed expression — both addends are computed
    exactly as :func:`linear` would and summed in the same association — but
    the sum accumulates in place into the first addend's buffer, saving one
    full-size output allocation per call (the SAGE ``self + neighbor``
    combination, once per layer per forward).
    """
    out_data = _stable_matmul(a.data, weight_a.data)
    if bias_a is not None:
        np.add(out_data, bias_a.data, out=out_data)
    other = _stable_matmul(b.data, weight_b.data)
    if bias_b is not None:
        np.add(other, bias_b.data, out=other)
    np.add(out_data, other, out=out_data)

    def backward(grad: Array) -> None:
        if a._needs_graph:
            a._accumulate(grad @ weight_a.data.T)
        if weight_a._needs_graph:
            weight_a._accumulate(a.data.T @ grad)
        if bias_a is not None and bias_a._needs_graph:
            bias_a._accumulate(_unbroadcast(grad, bias_a.data.shape))
        if b._needs_graph:
            b._accumulate(grad @ weight_b.data.T)
        if weight_b._needs_graph:
            weight_b._accumulate(b.data.T @ grad)
        if bias_b is not None and bias_b._needs_graph:
            bias_b._accumulate(_unbroadcast(grad, bias_b.data.shape))

    parents = tuple(
        tensor for tensor in (a, weight_a, bias_a, b, weight_b, bias_b)
        if tensor is not None
    )
    return Tensor(out_data, _parents=parents, _backward=backward)


def relu_add(y: Tensor, x: Tensor) -> Tensor:
    """``y.relu() + x`` as one fused node (the residual connection).

    Identical values to the composed ops — the clamp happens first, into a
    fresh buffer, and the skip input is added in place into that same
    buffer — with the same gradient expressions (masked into ``y``, full
    into ``x``).  Saves one full-size temporary per propagation layer.
    """
    out_data = np.maximum(y.data, 0.0)
    np.add(out_data, x.data, out=out_data)

    def backward(grad: Array) -> None:
        if y._needs_graph:
            y._accumulate(grad * (y.data > 0))
        if x._needs_graph:
            x._accumulate(grad)

    return Tensor(out_data, _parents=(y, x), _backward=backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """``x @ weight (+ bias)`` as one fused node (in-place bias add).

    Identical bits to ``x.matmul(weight) + bias`` — the bias is added in
    place into the freshly-allocated matmul output instead of allocating a
    second full-size tensor — with the same gradient expressions.
    """
    out_data = _stable_matmul(x.data, weight.data)
    if bias is not None:
        np.add(out_data, bias.data, out=out_data)

    def backward(grad: Array) -> None:
        if x._needs_graph:
            x._accumulate(grad @ weight.data.T)
        if weight._needs_graph:
            weight._accumulate(x.data.T @ grad)
        if bias is not None and bias._needs_graph:
            bias._accumulate(_unbroadcast(grad, bias.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out_data, _parents=parents, _backward=backward)


def segment_mean(values: Tensor, segment_ids: Array, num_segments: int) -> Tensor:
    """Average rows of ``values`` per segment (empty segments give zero)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = SCATTER_INDEX_CACHE.segment_counts(
        segment_ids, num_segments, values.data.dtype
    ).reshape((num_segments,) + (1,) * (values.ndim - 1))
    return segment_sum(values, segment_ids, num_segments) * Tensor(1.0 / counts)


def segment_max(values: Tensor, segment_ids: Array, num_segments: int) -> Tensor:
    """Per-segment maximum; gradients flow to the arg-max rows only."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    feature_shape = values.data.shape[1:]
    out_data = np.full(
        (num_segments,) + feature_shape, -np.inf, dtype=values.data.dtype
    )
    segments = (
        SCATTER_INDEX_CACHE.sorted_segments(segment_ids)
        if segment_ids.size and values.data.ndim >= 2
        else None
    )
    if segments is not None:
        starts, present = segments
        out_data[present] = np.maximum.reduceat(values.data, starts, axis=0)
    else:
        np.maximum.at(out_data, segment_ids, values.data)
    empty = np.isneginf(out_data)
    out_data = np.where(empty, 0.0, out_data)
    # rows achieving the maximum (ties share the gradient); the mask is
    # derived lazily on the first backward call, so inference-only passes
    # skip it entirely
    state: dict = {}

    def backward(grad: Array) -> None:
        if values._needs_graph:
            is_max = state.get("is_max")
            if is_max is None:
                is_max = (
                    np.isclose(values.data, out_data[segment_ids])
                    & ~empty[segment_ids]
                )
                state["is_max"] = is_max
            values._accumulate(grad[segment_ids] * is_max)

    return Tensor(out_data, _parents=(values,), _backward=backward)


def segment_softmax(scores: Tensor, segment_ids: Array, num_segments: int) -> Tensor:
    """Softmax over the entries of each segment (used for attention)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    maxima = segment_max(scores, segment_ids, num_segments)
    shifted = scores - maxima.gather_rows(segment_ids)
    exped = shifted.exp()
    denominators = segment_sum(exped, segment_ids, num_segments)
    return exped / (denominators.gather_rows(segment_ids) + 1e-12)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tensors into a matrix (row per tensor)."""
    out_data = np.stack([t.data for t in tensors])

    def backward(grad: Array) -> None:
        for row, tensor in enumerate(tensors):
            if tensor._needs_graph:
                tensor._accumulate(grad[row])

    return Tensor(out_data, _parents=tuple(tensors), _backward=backward)


__all__ = [
    "Tensor", "concat", "segment_sum", "segment_mean", "segment_max",
    "segment_softmax", "stack_rows", "gather_scatter_sum", "linear",
    "linear_sum", "relu_add", "embedding_linear", "SCATTER_INDEX_CACHE",
    "precision", "active_precision", "active_dtype", "PRECISION_DTYPES",
    "blas_threads",
]
