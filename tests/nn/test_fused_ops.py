"""Fused and cached autograd ops against their plain-numpy compositions.

Each fused op in :mod:`repro.nn.autograd` — and GraphSAGE's weighted-CSR
neighbor mean in :mod:`repro.nn.message_passing` — stands in for a
composition of simpler steps.  These tests recompute that composition in
plain numpy, forward and gradient, and require identical bits where the
op's docstring promises them and agreement to 1e-12 relative otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.autograd import (
    SCATTER_INDEX_CACHE,
    Tensor,
    embedding_linear,
    gather_scatter_sum,
    linear,
    linear_sum,
    relu_add,
    segment_max,
    segment_mean,
)
from repro.nn.message_passing import SAGEConv

RTOL = 1e-12


def leaf(rng: np.random.Generator, *shape: int) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def assert_close(actual: np.ndarray, expected: np.ndarray) -> None:
    """Within 1e-12 relative to the largest expected magnitude."""
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


def random_edges(rng: np.random.Generator, num_nodes: int, num_edges: int):
    """Unsorted destinations with duplicate pairs; node 0 gets no in-edge."""
    src = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    dst = rng.integers(1, num_nodes, size=num_edges).astype(np.int64)
    src[1], dst[1] = src[0], dst[0]
    assert (np.diff(dst) < 0).any()
    return src, dst


class TestLinearFamily:
    """``linear``, ``linear_sum`` and ``relu_add`` promise identical bits."""

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_linear_matches_numpy(self, with_bias):
        rng = np.random.default_rng(0)
        x, weight = leaf(rng, 6, 4), leaf(rng, 4, 5)
        bias = leaf(rng, 5) if with_bias else None
        grad = rng.standard_normal((6, 5))
        out = linear(x, weight, bias)
        expected = x.data @ weight.data
        if with_bias:
            expected = expected + bias.data
        np.testing.assert_array_equal(out.data, expected)
        out.backward(grad)
        np.testing.assert_array_equal(x.grad, grad @ weight.data.T)
        np.testing.assert_array_equal(weight.grad, x.data.T @ grad)
        if with_bias:
            np.testing.assert_array_equal(bias.grad, grad.sum(axis=0))

    def test_linear_sum_matches_numpy(self):
        rng = np.random.default_rng(1)
        a, weight_a, bias_a = leaf(rng, 7, 3), leaf(rng, 3, 4), leaf(rng, 4)
        b, weight_b, bias_b = leaf(rng, 7, 5), leaf(rng, 5, 4), leaf(rng, 4)
        grad = rng.standard_normal((7, 4))
        out = linear_sum(a, weight_a, bias_a, b, weight_b, bias_b)
        np.testing.assert_array_equal(
            out.data,
            (a.data @ weight_a.data + bias_a.data)
            + (b.data @ weight_b.data + bias_b.data),
        )
        out.backward(grad)
        np.testing.assert_array_equal(a.grad, grad @ weight_a.data.T)
        np.testing.assert_array_equal(weight_a.grad, a.data.T @ grad)
        np.testing.assert_array_equal(bias_a.grad, grad.sum(axis=0))
        np.testing.assert_array_equal(b.grad, grad @ weight_b.data.T)
        np.testing.assert_array_equal(weight_b.grad, b.data.T @ grad)
        np.testing.assert_array_equal(bias_b.grad, grad.sum(axis=0))

    def test_relu_add_matches_numpy(self):
        rng = np.random.default_rng(2)
        y, x = leaf(rng, 8, 6), leaf(rng, 8, 6)
        assert (y.data < 0).any() and (y.data > 0).any()
        grad = rng.standard_normal((8, 6))
        out = relu_add(y, x)
        np.testing.assert_array_equal(out.data, np.maximum(y.data, 0.0) + x.data)
        out.backward(grad)
        np.testing.assert_array_equal(y.grad, grad * (y.data > 0))
        np.testing.assert_array_equal(x.grad, grad)


class TestEmbeddingLinear:
    """The code gather stands in for ``one-hot @ W``, to rounding."""

    @pytest.mark.parametrize("numeric_width", [3, 0])
    def test_matches_dense_one_hot_product(self, numeric_width):
        rng = np.random.default_rng(3)
        split, num_nodes = 5, 9
        codes = rng.integers(0, split, size=num_nodes).astype(np.int64)
        numeric = rng.standard_normal((num_nodes, numeric_width))
        weight, bias = leaf(rng, split + numeric_width, 4), leaf(rng, 4)
        grad = rng.standard_normal((num_nodes, 4))
        dense = np.zeros((num_nodes, split + numeric_width))
        dense[np.arange(num_nodes), codes] = 1.0
        dense[:, split:] = numeric
        out = embedding_linear(codes, numeric, weight, bias, split)
        assert_close(out.data, dense @ weight.data + bias.data)
        out.backward(grad)
        assert_close(weight.grad, dense.T @ grad)
        assert_close(bias.grad, grad.sum(axis=0))


class TestGatherScatterSum:
    """The cached CSR product promises the bits of the unfused scatter."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_add_at(self, weighted):
        rng = np.random.default_rng(4)
        num_nodes = 9
        x = leaf(rng, num_nodes, 4)
        src, dst = random_edges(rng, num_nodes, 24)
        weights = rng.uniform(0.1, 2.0, (dst.size, 1)) if weighted else None
        messages = x.data[src] * weights if weighted else x.data[src]
        expected = np.zeros((num_nodes, 4))
        np.add.at(expected, dst, messages)
        out = gather_scatter_sum(x, src, dst, num_nodes, weights=weights)
        np.testing.assert_array_equal(out.data, expected)
        grad = rng.standard_normal((num_nodes, 4))
        out.backward(grad)
        upstream = grad[dst] * weights if weighted else grad[dst]
        expected_grad = np.zeros_like(x.data)
        np.add.at(expected_grad, src, upstream)
        assert_close(x.grad, expected_grad)


class TestSageMean:
    """SAGE folds 1/in-degree into per-edge CSR weights: equal to the
    segment mean within rounding."""

    def numpy_mean(self, values, src, dst, num_nodes):
        summed = np.zeros((num_nodes, values.shape[1]))
        np.add.at(summed, dst, values[src])
        counts = np.maximum(np.bincount(dst, minlength=num_nodes), 1)
        return summed / counts[:, None], counts

    def test_csr_mean_matches_segment_mean(self):
        rng = np.random.default_rng(5)
        num_nodes = 10
        x = leaf(rng, num_nodes, 3)
        src, dst = random_edges(rng, num_nodes, 30)
        expected, counts = self.numpy_mean(x.data, src, dst, num_nodes)
        weights = SCATTER_INDEX_CACHE.mean_edge_weights(dst, num_nodes, x.data.dtype)
        fused = gather_scatter_sum(x, src, dst, num_nodes, weights=weights)
        assert_close(fused.data, expected)
        composed_input = Tensor(x.data.copy(), requires_grad=True)
        composed = segment_mean(composed_input.gather_rows(src), dst, num_nodes)
        assert_close(composed.data, expected)
        grad = rng.standard_normal((num_nodes, 3))
        fused.backward(grad)
        composed.backward(grad)
        expected_grad = np.zeros_like(x.data)
        np.add.at(expected_grad, src, (grad / counts[:, None])[dst])
        assert_close(x.grad, expected_grad)
        assert_close(composed_input.grad, expected_grad)

    def test_sage_conv_matches_numpy(self):
        rng = np.random.default_rng(6)
        num_nodes = 8
        conv = SAGEConv(4, 5, rng=np.random.default_rng(7))
        x = leaf(rng, num_nodes, 4)
        src, dst = random_edges(rng, num_nodes, 20)
        mean, _ = self.numpy_mean(x.data, src, dst, num_nodes)
        expected = (
            x.data @ conv.linear_self.weight.data + conv.linear_self.bias.data
            + mean @ conv.linear_neighbor.weight.data
            + conv.linear_neighbor.bias.data
        )
        out = conv(x, np.stack([src, dst]))
        assert_close(out.data, expected)
        # gradients against the same layer composed from unfused autograd ops
        grad = rng.standard_normal((num_nodes, 5))
        out.backward(grad)
        fused_grads = [x.grad] + [p.grad.copy() for p in conv.parameters()]
        x.grad = None
        conv.zero_grad()
        composed = conv.linear_self(x) + conv.linear_neighbor(
            segment_mean(x.gather_rows(src), dst, num_nodes)
        )
        composed.backward(grad)
        composed_grads = [x.grad] + [p.grad for p in conv.parameters()]
        for fused, reference in zip(fused_grads, composed_grads):
            assert_close(fused, reference)


class TestSegmentMax:
    """Maxima are exact, so both scatter paths match ``np.maximum.at``."""

    @pytest.mark.parametrize("sorted_ids", [True, False])
    def test_matches_maximum_at(self, sorted_ids):
        rng = np.random.default_rng(8)
        num_segments = 6
        ids = np.array([0, 0, 1, 1, 1, 3, 3, 4, 4, 4, 4], dtype=np.int64)
        if not sorted_ids:
            ids = rng.permutation(ids)
        values = leaf(rng, ids.size, 3)
        expected = np.full((num_segments, 3), -np.inf)
        np.maximum.at(expected, ids, values.data)
        empty = np.isneginf(expected)
        expected[empty] = 0.0
        out = segment_max(values, ids, num_segments)
        np.testing.assert_array_equal(out.data, expected)
        grad = rng.standard_normal((num_segments, 3))
        out.backward(grad)
        is_max = np.isclose(values.data, expected[ids]) & ~empty[ids]
        np.testing.assert_array_equal(values.grad, grad[ids] * is_max)
