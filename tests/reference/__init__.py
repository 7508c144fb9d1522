"""Standalone reference implementations that tests and benches compare against.

Nothing under ``src/`` imports this package: production code has one path,
and these oracles recompute its results the plain way.

* :mod:`reference.encoding` — the per-sample dense ``[one-hot | numeric]``
  batch encoder the vectorized :func:`repro.nn.data.make_batch` replaced,
  and its dense one-hot optype :func:`encode`;
* :mod:`reference.predict` — :func:`reference_predict`, the hierarchical
  predictor in plain numpy (uncached decomposition, per-node super-node
  annotation, dense encoding, unfused GraphSAGE forward);
* :mod:`reference.graph_digests` — committed digests of the default graph
  builder's output on every registered kernel.

``tests/`` is on ``sys.path`` under pytest (importing ``tests/conftest.py``
puts it there) and ``benchmarks/conftest.py`` appends it for the benches,
so both import this package as ``reference``.
"""

from .encoding import batch_dense_x, encode, make_batch_reference
from .graph_digests import committed_graph_digests, compute_graph_digests
from .predict import reference_predict

__all__ = [
    "batch_dense_x", "encode", "make_batch_reference", "committed_graph_digests",
    "compute_graph_digests", "reference_predict",
]
