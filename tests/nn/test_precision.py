"""Precision-tier tests: dtype propagation and ``_stable_matmul`` invariance.

The inference tiers rely on two properties of the kernel layer:

* ``_stable_matmul`` gives each row of a product the same bits whether it
  is computed alone or at any offset inside a taller matrix, and a single
  column the same bits alone and inside a wider product — in *both*
  dtypes;
* every kernel propagates the dtype of its inputs, so a model whose weights
  were cast once at load runs float32 end to end — no silent float64 upcast
  on the forward pass or in the gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.flags import precision
from repro.nn.autograd import (
    Tensor,
    _stable_matmul,
    active_dtype,
    embedding_linear,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from repro.nn.layers import Linear
from repro.nn.message_passing import make_conv

DTYPE_NAMES = ("float64", "float32")

CONV_TYPES = ("gcn", "gat", "graphsage", "transformer", "pna")


def _elements(dtype: np.dtype) -> st.SearchStrategy[float]:
    width = 32 if dtype == np.float32 else 64
    return st.floats(-8.0, 8.0, width=width)


class TestStableMatmulInvariance:
    """A product's rows and lone columns do not depend on what shares it."""

    @given(
        k=st.integers(1, 6),
        n=st.integers(1, 6),
        name=st.sampled_from(DTYPE_NAMES),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_row_matches_batched(self, k, n, name, data):
        dtype = np.dtype(name)
        a = data.draw(arrays(dtype, (1, k), elements=_elements(dtype)))
        b = data.draw(arrays(dtype, (k, n), elements=_elements(dtype)))
        extra = data.draw(arrays(dtype, (3, k), elements=_elements(dtype)))
        alone = _stable_matmul(a, b)
        batched = _stable_matmul(np.concatenate([a, extra], axis=0), b)
        assert alone.dtype == dtype
        assert alone.shape == (1, b.shape[1])
        assert np.array_equal(alone[0], batched[0])

    @given(
        m=st.integers(2, 6),
        k=st.integers(1, 6),
        name=st.sampled_from(DTYPE_NAMES),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_column_matches_batched(self, m, k, name, data):
        dtype = np.dtype(name)
        a = data.draw(arrays(dtype, (m, k), elements=_elements(dtype)))
        b = data.draw(arrays(dtype, (k, 1), elements=_elements(dtype)))
        extra = data.draw(arrays(dtype, (k, 3), elements=_elements(dtype)))
        alone = _stable_matmul(a, b)
        batched = _stable_matmul(a, np.concatenate([b, extra], axis=1))
        assert alone.dtype == dtype
        assert alone.shape == (a.shape[0], 1)
        assert np.array_equal(alone[:, 0], batched[:, 0])

    @given(
        k=st.integers(1, 6),
        name=st.sampled_from(DTYPE_NAMES),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_row_and_column(self, k, name, data):
        dtype = np.dtype(name)
        a = data.draw(arrays(dtype, (1, k), elements=_elements(dtype)))
        b = data.draw(arrays(dtype, (k, 1), elements=_elements(dtype)))
        extra_rows = data.draw(arrays(dtype, (3, k), elements=_elements(dtype)))
        extra_cols = data.draw(arrays(dtype, (k, 3), elements=_elements(dtype)))
        alone = _stable_matmul(a, b)
        batched = _stable_matmul(
            np.concatenate([a, extra_rows], axis=0),
            np.concatenate([b, extra_cols], axis=1),
        )
        assert alone.dtype == dtype
        assert alone.shape == (1, 1)
        assert alone[0, 0] == batched[0, 0]

    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 700),
        n=st.integers(1, 70),
        above=st.integers(0, 300),
        below=st.integers(0, 300),
        name=st.sampled_from(DTYPE_NAMES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_alone_and_at_any_offset(
        self, m, k, n, above, below, name, seed
    ):
        dtype = np.dtype(name)
        rng = np.random.default_rng(seed)
        tall = rng.standard_normal((above + m + below, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        alone = _stable_matmul(tall[above:above + m].copy(), b)
        inside = _stable_matmul(tall, b)
        assert alone.dtype == dtype
        assert alone.shape == (m, n)
        assert np.array_equal(alone, inside[above:above + m])


class TestPrecisionContext:
    def test_default_tier_is_float64(self):
        assert active_dtype() == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_float32_context_governs_created_arrays(self):
        with precision("float32"):
            assert active_dtype() == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
            # arrays that already carry a float dtype keep it
            assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
        assert active_dtype() == np.float64

    def test_scalar_literals_follow_tensor_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = ((x * 3.0 + 1e-12) / 2.0 - 0.25).sum()
        assert out.data.dtype == np.float32
        out.backward()
        assert x.grad.dtype == np.float32


@pytest.mark.parametrize("name", DTYPE_NAMES)
class TestKernelDtypePropagation:
    """No silent float64 upcasts, forward or backward."""

    def _assert_grads(self, module, dtype):
        for parameter in module.parameters():
            if parameter.grad is not None:
                assert parameter.grad.dtype == dtype, parameter.name

    @pytest.mark.parametrize("conv_type", CONV_TYPES)
    def test_conv_forward_and_backward(self, conv_type, name):
        dtype = np.dtype(name)
        rng = np.random.default_rng(0)
        conv = make_conv(conv_type, 6, 4, rng=rng)
        conv.load_state_dict(conv.state_dict(), dtype=dtype)
        x = Tensor(
            rng.normal(size=(7, 6)).astype(dtype), requires_grad=True
        )
        edge_index = np.array(
            [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6]], dtype=np.int64
        )
        out = conv(x, edge_index)
        assert out.data.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype
        self._assert_grads(conv, dtype)

    def test_linear(self, name):
        dtype = np.dtype(name)
        layer = Linear(4, 3)
        layer.load_state_dict(layer.state_dict(), dtype=dtype)
        x = Tensor(np.ones((5, 4), dtype=dtype), requires_grad=True)
        out = layer(x)
        assert out.data.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype
        self._assert_grads(layer, dtype)

    def test_pooling(self, name):
        dtype = np.dtype(name)
        values = Tensor(
            np.arange(12, dtype=dtype).reshape(6, 2), requires_grad=True
        )
        ids = np.array([0, 0, 1, 1, 1, 2], dtype=np.int64)
        for op in (segment_sum, segment_mean, segment_softmax):
            values.zero_grad()
            out = op(values, ids, 3)
            assert out.data.dtype == dtype, op.__name__
            out.sum().backward()
            assert values.grad.dtype == dtype, op.__name__

    def test_embedding_linear(self, name):
        dtype = np.dtype(name)
        rng = np.random.default_rng(1)
        split = 4
        weight = Tensor(
            rng.normal(size=(split + 3, 5)).astype(dtype), requires_grad=True
        )
        bias = Tensor(np.zeros(5, dtype=dtype), requires_grad=True)
        codes = np.array([0, 1, 3, 2, 1], dtype=np.int64)
        # the numeric block is float64 on purpose: embedding_linear must
        # cast it to the weight dtype rather than upcast the product
        numeric = rng.normal(size=(5, 3))
        out = embedding_linear(codes, numeric, weight, bias, split)
        assert out.data.dtype == dtype
        out.sum().backward()
        assert weight.grad.dtype == dtype
        assert bias.grad.dtype == dtype
