"""The BLAS pool-size helper, and the properties inference bits rest on.

Fleet workers and the ``repro-qor serve`` daemon run on one BLAS thread,
while the fleet coordinator (which re-scores a crashed worker's chunks),
library calls and training stay at the host's pool size.  That split is
only safe because inference outputs do not depend on the pool size: for
every conv type, ``predict_batch`` in both precision tiers and float64
``predict`` must give the same bits at one thread and at the host default.
(Float64 *training* bits do depend on it.)

Nor may they depend on batch composition: a design predicts the same bits
alone, inside a shuffled union, inside a union split by
``MAX_BATCH_NODES`` and through the stateless ``predict``
(``repro.nn.autograd._stable_matmul`` runs every product in fixed-height
row blocks).  PNA at hidden 64 is in the set because its K = 640
aggregation products are where OpenBLAS's kernel choice depends on every
output width.
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

#: conv type and hidden width of each model under test
MODELS = {
    "gcn": ("gcn", 32),
    "gat": ("gat", 32),
    "graphsage": ("graphsage", 32),
    "transformer": ("transformer", 32),
    "pna": ("pna", 32),
    "pna-h64": ("pna", 64),
}


def test_helper_round_trips():
    if HOST_THREADS is None:
        pytest.skip("no OpenBLAS loaded")
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


@pytest.fixture(scope="module", params=list(MODELS))
def conv_model(request, gemm_setup):
    """One briefly trained model per entry of :data:`MODELS`."""
    _, instances, _ = gemm_setup
    conv_type, hidden = MODELS[request.param]
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type=conv_type, hidden=hidden, num_layers=2,
            training=TrainingConfig(epochs=1, batch_size=16, seed=0),
        )
    )
    model.fit(instances)
    return request.param, model


def _bits(rows):
    return [{name: float(value).hex() for name, value in row.items()} for row in rows]


def test_inference_bits_do_not_depend_on_pool_size(gemm_setup, conv_model):
    if HOST_THREADS is None:
        pytest.skip("no OpenBLAS loaded")
    function, _, configs = gemm_setup
    name, model = conv_model

    def outputs(threads: int) -> dict:
        blas_threads(threads)
        found = {}
        for tier in ("float32", "float64"):
            model.clear_inference_caches()
            found[tier] = _bits(model.predict_batch(function, configs, precision=tier))
        found["predict"] = _bits(
            model.predict(function, config) for config in configs[:4]
        )
        return found

    try:
        one = outputs(1)
        host = outputs(HOST_THREADS)
    finally:
        blas_threads(HOST_THREADS)
    for kind in one:
        assert one[kind] == host[kind], f"{name} {kind}"


@pytest.mark.parametrize("tier", ["float64", "float32"])
def test_prediction_bits_do_not_depend_on_the_batch(
    gemm_setup, conv_model, tier, monkeypatch
):
    function, _, configs = gemm_setup
    name, model = conv_model
    model.set_precision(tier)
    try:
        model.clear_inference_caches()
        # each call scores one new design: its own forward passes
        alone = _bits(model.predict_batch(function, [config])[0] for config in configs)

        order = np.random.default_rng(5).permutation(len(configs))
        model.clear_inference_caches()
        shuffled = model.predict_batch(function, [configs[i] for i in order])
        union = [None] * len(configs)
        for row, index in zip(_bits(shuffled), order):
            union[index] = row

        # a budget of a few designs' nodes splits every forward pass
        monkeypatch.setattr(HierarchicalQoRModel, "MAX_BATCH_NODES", 300)
        model.clear_inference_caches()
        split = _bits(model.predict_batch(function, configs))
        monkeypatch.undo()

        single = _bits(model.predict(function, config) for config in configs)
    finally:
        model.set_precision("float64")
    for index in range(len(configs)):
        assert union[index] == alone[index], f"{name} {tier} config {index} union"
        assert split[index] == alone[index], f"{name} {tier} config {index} split"
        assert single[index] == alone[index], f"{name} {tier} config {index} predict"
