"""The BLAS pool-size helper, and the property one-thread processes rest on.

Fleet workers and the ``repro-qor serve`` daemon run on one BLAS thread,
while the fleet coordinator (which re-scores a crashed worker's chunks),
library calls and training stay at the host's pool size.  That split is
only safe because inference outputs do not depend on the pool size: for
every conv type, ``predict_batch`` in both precision tiers and float64
sequential ``predict`` must give the same bits at one thread and at the
host default.  (Float64 *training* bits do depend on it.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
    build_design_instances,
)
from repro.dse.space import sample_design_space
from repro.kernels import load_kernel
from repro.nn.autograd import blas_threads

HOST_THREADS = blas_threads()

pytestmark = pytest.mark.skipif(HOST_THREADS is None, reason="no OpenBLAS loaded")


def test_helper_round_trips():
    try:
        assert blas_threads(1) == 1
        assert blas_threads() == 1
    finally:
        blas_threads(HOST_THREADS)
    assert blas_threads() == HOST_THREADS


@pytest.fixture(scope="module")
def gemm_setup():
    function = load_kernel("gemm")
    train = sample_design_space(function, 6, rng=np.random.default_rng(0))
    instances = build_design_instances({"gemm": function}, {"gemm": train})
    # a union of a few thousand nodes at hidden 32: large enough that the
    # host's pool really threads the forward GEMMs
    configs = sample_design_space(function, 24, rng=np.random.default_rng(1))
    return function, instances, configs


def _bits(rows):
    return [{name: float(value).hex() for name, value in row.items()} for row in rows]


@pytest.mark.parametrize("conv_type", ["gcn", "gat", "graphsage", "transformer", "pna"])
def test_inference_bits_do_not_depend_on_pool_size(gemm_setup, conv_type):
    function, instances, configs = gemm_setup
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type=conv_type, hidden=32, num_layers=2,
            training=TrainingConfig(epochs=1, batch_size=16, seed=0),
        )
    )
    model.fit(instances)

    def outputs(threads: int) -> dict:
        blas_threads(threads)
        found = {}
        for tier in ("float32", "float64"):
            model.clear_inference_caches()
            found[tier] = _bits(model.predict_batch(function, configs, precision=tier))
        model.clear_inference_caches()
        found["sequential"] = _bits(
            model.predict(function, config) for config in configs[:4]
        )
        return found

    try:
        one = outputs(1)
        host = outputs(HOST_THREADS)
    finally:
        blas_threads(HOST_THREADS)
    for kind in one:
        assert one[kind] == host[kind], f"{conv_type} {kind}"
