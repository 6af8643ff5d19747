"""Tests for the fused message-passing super-ops (``repro.autodiff.fused``).

The fused kernels must be *bitwise* interchangeable with the op-by-op
reference compositions on the KUCNet hot path (the golden-loss fixtures
pin per-epoch losses exactly), so parity here is asserted against the
oracles of ``tests/reference_ops.py`` and inline compositions with zero
tolerance.
"""

import sys
import threading

import numpy as np
import pytest

from repro import telemetry as tm
from repro.autodiff import (Tensor, check_gradients, check_gradients_match,
                            fused_gather_mul_segment_sum, fused_rgcn_messages,
                            fused_segment_softmax, gather_rows, no_tape,
                            segment_softmax, segment_sum)
from repro.autodiff.fused import _SCRATCH
from repro.core.layers import AttentionMessagePassing
from repro.sampling import LayerEdges

from .reference_ops import (reference_attention_layer,
                            reference_segment_softmax)


def _layer_inputs(num_src=12, num_dst=9, num_edges=40, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_src, size=num_edges)
    # leave the last two destinations empty (empty-segment case)
    dst = np.sort(rng.integers(0, num_dst - 2, size=num_edges))
    rels = rng.integers(0, 7, size=num_edges)
    hidden = Tensor(rng.normal(size=(num_src, dim)), requires_grad=True)
    edges = LayerEdges(src_pos=src, relations=rels, dst_pos=dst,
                       heads=src, tails=dst)
    return hidden, edges, num_dst


def _make_layer(dim=6, use_attention=True, activation="relu", seed=3):
    return AttentionMessagePassing(dim=dim, attn_dim=4, num_relations=7,
                                   activation=activation,
                                   use_attention=use_attention,
                                   rng=np.random.default_rng(seed))


#: the production layer call (always fused) and its op-by-op oracle
_FUSED = AttentionMessagePassing.__call__
_FORWARDS = (_FUSED, reference_attention_layer)


class TestAttentionLayerParity:
    """Fused layer output/gradients are bitwise equal to the reference."""

    @pytest.mark.parametrize("use_attention", [True, False])
    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_bitwise_parity(self, use_attention, activation):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer(use_attention=use_attention,
                            activation=activation)
        params = [hidden] + list(layer.parameters())

        def run(forward):
            def fn():
                out, _ = forward(layer, hidden, edges, num_dst)
                return (out * out).sum()
            return fn

        check_gradients_match(run(_FUSED), run(reference_attention_layer),
                              params, atol=0.0, rtol=0.0)

    def test_attention_values_match(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer()
        _, fused_alpha = layer(hidden, edges, num_dst,
                               collect_attention=True)
        _, ref_alpha = reference_attention_layer(layer, hidden, edges,
                                                 num_dst,
                                                 collect_attention=True)
        assert np.array_equal(fused_alpha, ref_alpha)

    def test_attention_none_unless_collected(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer()
        for forward in _FORWARDS:
            _, alpha = forward(layer, hidden, edges, num_dst)
            assert alpha is None

    def test_no_attention_collects_ones(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer(use_attention=False)
        _, alpha = layer(hidden, edges, num_dst, collect_attention=True)
        assert np.all(alpha == 1.0)

    def test_zero_edges(self):
        layer = _make_layer(dim=4)
        empty = LayerEdges(*(np.empty(0, dtype=np.int64) for _ in range(5)))
        for forward in _FORWARDS:
            out, alpha = forward(layer, Tensor(np.zeros((2, 4))), empty, 3,
                                 collect_attention=True)
            assert out.shape == (3, 4)
            assert np.all(out.data == 0.0)
            assert alpha.shape == (0,)

    def test_fused_finite_difference_gradcheck(self):
        hidden, edges, num_dst = _layer_inputs(num_src=6, num_dst=5,
                                               num_edges=12, dim=3)
        layer = _make_layer(dim=3, activation="tanh")
        params = [hidden] + list(layer.parameters())

        def fn():
            out, _ = layer(hidden, edges, num_dst)
            return (out.tanh() * out).sum()

        assert check_gradients(fn, params, atol=1e-5, rtol=1e-3)

    def test_fused_produces_single_graph_node(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer(activation="identity")
        out, _ = layer(hidden, edges, num_dst)
        # identity activation + no dropout: the layer output IS the
        # fused node, parented directly on inputs and parameters.
        assert hidden in out._parents
        assert layer.message_transform.weight in out._parents


class TestFusedSegmentSoftmax:
    def test_bitwise_vs_reference_with_empty_segments(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=14), requires_grad=True)
        seg = np.sort(rng.integers(0, 4, size=14))   # segments 4,5 empty
        check_gradients_match(
            lambda: (fused_segment_softmax(x, seg, 6) * Tensor(np.arange(14.0))).sum(),
            lambda: (reference_segment_softmax(x, seg, 6) * Tensor(np.arange(14.0))).sum(),
            [x], atol=0.0, rtol=0.0)
        # the public op on a 2-D input: one softmax per column
        x2 = Tensor(rng.normal(size=(14, 3)), requires_grad=True)
        weights = Tensor(rng.normal(size=(14, 3)))
        check_gradients_match(
            lambda: (segment_softmax(x2, seg, 6) * weights).sum(),
            lambda: (reference_segment_softmax(x2, seg, 6) * weights).sum(),
            [x2], atol=0.0, rtol=0.0)

    def test_mass_sums_to_one_per_nonempty_segment(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=20))
        seg = np.sort(rng.integers(0, 6, size=20))
        out = fused_segment_softmax(x, seg, 8)
        mass = np.bincount(seg, weights=out.data, minlength=8)
        for segment in range(8):
            if (seg == segment).any():
                assert mass[segment] == pytest.approx(1.0)


class TestFusedGatherMulSegmentSum:
    def _arrays(self, seed=4, num_nodes=8, num_edges=25, dim=5):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = np.sort(rng.integers(0, num_nodes, size=num_edges))
        rels = rng.integers(0, 6, size=num_edges)
        x = Tensor(rng.normal(size=(num_nodes, dim)), requires_grad=True)
        table = Tensor(rng.normal(size=(6, dim)), requires_grad=True)
        per_edge = Tensor(rng.normal(size=(num_edges, 1)), requires_grad=True)
        return src, dst, rels, x, table, per_edge, num_nodes

    def test_plain_mode_bitwise(self):
        src, dst, _, x, _, _, n = self._arrays()
        check_gradients_match(
            lambda: (fused_gather_mul_segment_sum(x, src, dst, n) ** 2.0).sum(),
            lambda: (segment_sum(gather_rows(x, src), dst, n) ** 2.0).sum(),
            [x], atol=0.0, rtol=0.0)

    def test_gathered_table_mode_bitwise(self):
        src, dst, rels, x, table, _, n = self._arrays()
        check_gradients_match(
            lambda: (fused_gather_mul_segment_sum(
                x, src, dst, n, y=table, y_indices=rels) ** 2.0).sum(),
            lambda: (segment_sum(gather_rows(x, src)
                                 * gather_rows(table, rels), dst, n)
                     ** 2.0).sum(),
            [x, table], atol=0.0, rtol=0.0)

    def test_per_edge_operand_mode_bitwise(self):
        src, dst, _, x, _, per_edge, n = self._arrays()
        check_gradients_match(
            lambda: (fused_gather_mul_segment_sum(
                x, src, dst, n, y=per_edge) ** 2.0).sum(),
            lambda: (segment_sum(gather_rows(x, src) * per_edge, dst, n)
                     ** 2.0).sum(),
            [x, per_edge], atol=0.0, rtol=0.0)

    def test_finite_difference(self):
        src, dst, rels, x, table, _, n = self._arrays(num_nodes=5,
                                                      num_edges=9, dim=3)
        assert check_gradients(
            lambda: (fused_gather_mul_segment_sum(
                x, src, dst, n, y=table, y_indices=rels).tanh()).sum(),
            [x, table], atol=1e-5, rtol=1e-3)


class TestFusedRGCNMessages:
    def test_bitwise_vs_reference(self):
        rng = np.random.default_rng(5)
        num_nodes, num_edges, dim, num_bases = 7, 20, 4, 3
        heads = rng.integers(0, num_nodes, size=num_edges)
        tails = np.sort(rng.integers(0, num_nodes, size=num_edges))
        rels = rng.integers(0, 5, size=num_edges)
        hidden = Tensor(rng.normal(size=(num_nodes, dim)), requires_grad=True)
        bases = [Tensor(rng.normal(size=(dim, dim)), requires_grad=True)
                 for _ in range(num_bases)]
        coeffs = Tensor(rng.normal(size=(5, num_bases)), requires_grad=True)

        def reference():
            source = gather_rows(hidden, heads)
            coeff_rows = gather_rows(coeffs, rels)
            messages = None
            for index, basis in enumerate(bases):
                col = gather_rows(
                    coeff_rows.reshape(num_edges * num_bases, 1),
                    np.arange(num_edges) * num_bases + index)
                term = (source @ basis.T) * col
                messages = term if messages is None else messages + term
            return (segment_sum(messages, tails, num_nodes) ** 2.0).sum()

        check_gradients_match(
            lambda: (fused_rgcn_messages(hidden, heads, rels, tails,
                                         num_nodes, bases, coeffs)
                     ** 2.0).sum(),
            reference, [hidden, coeffs] + bases, atol=0.0, rtol=1e-12)


class TestFusionTelemetry:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        tm.disable()
        tm.reset()
        yield
        tm.disable()
        tm.reset()

    def test_counters_and_span_recorded(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer()
        with tm.enabled(True):
            layer(hidden, edges, num_dst)
        registry = tm.get_registry()
        assert registry.counters["autodiff.fused_calls"].total == 1
        assert registry.counters["autodiff.fused_saved_bytes"].total > 0
        assert "autodiff.fused" in registry.spans

    def test_no_counters_on_reference_path(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer()
        with tm.enabled(True):
            reference_attention_layer(layer, hidden, edges, num_dst)
        assert "autodiff.fused_calls" not in tm.get_registry().counters

    def test_tape_bytes_shrink(self):
        """The acceptance criterion: >= 40% tape_bytes drop when fused."""
        hidden, edges, num_dst = _layer_inputs(num_src=60, num_dst=40,
                                               num_edges=400, dim=8)
        layer = _make_layer(dim=8)
        peaks = []
        for forward in _FORWARDS:
            tm.reset()
            with tm.enabled(True):
                layer.zero_grad()
                hidden.zero_grad()
                out, _ = forward(layer, hidden, edges, num_dst)
                (out * out).sum().backward()
                peaks.append(tm.get_registry().histograms[
                    "autodiff.tape_bytes"].maximum)
        fused_peak, reference_peak = peaks
        assert fused_peak <= 0.6 * reference_peak


class TestScratch:
    """The attention kernel's per-thread scratch changes no result."""

    def test_calls_of_every_size_match_reference_and_own_their_results(self):
        # edge counts grow and shrink; the width goes 6 -> 32 -> 6
        for num_edges, dim in [(40, 6), (400, 6), (25, 32), (900, 32),
                               (60, 6), (10, 6)]:
            for use_attention in (True, False):
                hidden, edges, num_dst = _layer_inputs(
                    num_src=30, num_dst=20, num_edges=num_edges, dim=dim,
                    seed=num_edges)
                layer = _make_layer(dim=dim, use_attention=use_attention)
                params = [hidden] + list(layer.parameters())
                results = []
                for forward in _FORWARDS:
                    for param in params:
                        param.zero_grad()
                    out, _ = forward(layer, hidden, edges, num_dst)
                    (out * out).sum().backward()
                    results.append([out.data] + [
                        np.empty(0) if p.grad is None else p.grad
                        for p in params])
                fused, reference = results
                for got, want in zip(fused, reference):
                    assert got.tobytes() == want.tobytes()
                    assert not any(np.shares_memory(got, buffer)
                                   for buffer in _SCRATCH.buffers)
        assert max(buffer.size for buffer in _SCRATCH.buffers) >= 900 * 32

    def test_threads_propagating_at_once_match_serial(self):
        layer = _make_layer(dim=16)
        batches = [_layer_inputs(num_src=40, num_dst=30, num_edges=edges,
                                 dim=16, seed=edges)
                   for edges in (300, 500, 800, 1200)]

        def propagate(batch):
            hidden, edges, num_dst = batch
            with no_tape():
                return [layer(hidden, edges, num_dst)[0].data
                        for _ in range(25)]

        serial = [propagate(batch)[0] for batch in batches]
        results = [None] * len(batches)
        start = threading.Barrier(len(batches))

        def worker(index):
            start.wait(timeout=10)
            results[index] = propagate(batches[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(index,))
                       for index in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for expected, outputs in zip(serial, results):
            assert all(out.tobytes() == expected.tobytes() for out in outputs)

    @pytest.mark.parametrize("field,value", [
        ("src_pos", -1), ("src_pos", 12), ("relations", -1),
        ("relations", 7), ("dst_pos", -1), ("dst_pos", 9)])
    def test_out_of_range_index_raises_in_forward(self, field, value):
        hidden, edges, num_dst = _layer_inputs()
        arrays = {name: getattr(edges, name).copy()
                  for name in ("src_pos", "relations", "dst_pos")}
        arrays[field][3] = value
        bad = LayerEdges(heads=arrays["src_pos"], tails=arrays["dst_pos"],
                         **arrays)
        with pytest.raises(IndexError):
            _make_layer()(hidden, bad, num_dst)

    def test_no_tape_same_outputs_still_counted_nothing_recorded(self):
        hidden, edges, num_dst = _layer_inputs()
        layer = _make_layer()
        taped, taped_alpha = layer(hidden, edges, num_dst,
                                   collect_attention=True)
        tm.reset()
        try:
            with tm.enabled(True), no_tape():
                out, alpha = layer(hidden, edges, num_dst,
                                   collect_attention=True)
            calls = tm.get_registry().counters["autodiff.fused_calls"].total
        finally:
            tm.reset()
        assert calls == 1
        assert out.data.tobytes() == taped.data.tobytes()
        assert alpha.tobytes() == taped_alpha.tobytes()
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad
