"""Op-by-op reference compositions of the fused message-passing kernels.

Production code calls the fused super-ops of ``repro.autodiff.fused``
unconditionally.  The compositions below chain the primitive ops those
kernels replace, and serve as the parity oracles in the tests:

* :func:`reference_attention_layer` — one KUCNet layer (Eq. 5-6) of
  :class:`~repro.core.layers.AttentionMessagePassing`, bitwise equal to
  the fused layer in output and gradients;
* :func:`reference_segment_softmax` — bitwise equal to
  ``ops.segment_softmax``;
* :func:`reference_compgcn_encode` — CompGCN's per-edge transform, which
  the fused encoder matches up to rounding only (it transforms the
  per-node sums, not each edge message).

The forward-push solver's active-set sweep has an oracle here too:

* :func:`reference_sweep_chunk` — the dense sweep that scans the whole
  chunk and adds one ``bincount`` over chunk x N keys per sweep,
  bitwise equal to ``repro.ppr.push._sweep_chunk`` in estimate,
  residual, op count and touched rows.
"""

import numpy as np

from repro.autodiff import Tensor, gather_rows, segment_sum


def reference_attention_layer(layer, hidden_prev, edges, num_dst,
                              collect_attention=False):
    """``layer(hidden_prev, edges, num_dst)`` through the primitive ops."""
    if edges.num_edges == 0:
        zero = Tensor(np.zeros((num_dst, layer.dim)))
        return zero, (np.empty(0) if collect_attention else None)

    h_src = gather_rows(hidden_prev, edges.src_pos)
    h_rel = layer.relation_embedding(edges.relations)

    if layer.use_attention:
        attn_hidden = (layer.attn_source(h_src) + layer.attn_relation(h_rel)
                       + layer.attn_bias).relu()
        alpha = (attn_hidden @ layer.attn_vector).sigmoid()
        messages = layer.message_transform(h_src + h_rel) * alpha.reshape(-1, 1)
        attention_values = alpha.data.copy() if collect_attention else None
    else:
        messages = layer.message_transform(h_src + h_rel)
        attention_values = (np.ones(edges.num_edges)
                            if collect_attention else None)

    aggregated = segment_sum(messages, edges.dst_pos, num_dst)
    activated = layer._activate(aggregated)
    return layer.dropout(activated), attention_values


def reference_segment_softmax(x, segment_ids, num_segments):
    """Per-segment softmax: max shift, exp, segment-sum denominator."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full((num_segments,) + x.data.shape[1:], -np.inf,
                      dtype=x.data.dtype)
    np.maximum.at(seg_max, segment_ids, x.data)
    shifted = x - Tensor(seg_max[segment_ids])
    exp = shifted.exp()
    denom = segment_sum(exp, segment_ids, num_segments)
    return exp / gather_rows(denom, segment_ids)


def reference_compgcn_encode(model):
    """``model.encode()`` with the entity transform applied per edge."""
    entities = model.entity_embedding.weight
    relations = model.relation_embedding.weight
    norm = Tensor(model._norm.reshape(-1, 1))
    for layer in range(model.num_layers):
        source = gather_rows(entities, model._heads)
        edge_rel = gather_rows(relations, model._rels)
        messages = model.entity_transforms[layer](source * edge_rel)
        aggregated = segment_sum(messages, model._tails,
                                 model.kg.num_entities) * norm
        entities = aggregated.tanh()
        relations = model.relation_transforms[layer](relations)
    return entities, relations


def reference_sweep_chunk(ckg, estimate, residual, thresholds, degrees,
                          inv_degrees, alpha, signed=False, touched=None):
    """``_sweep_chunk`` as one dense scan and ``bincount`` per sweep."""
    from repro.ppr.push import MAX_SWEEPS

    batch, num_nodes = residual.shape
    ops = 0
    for _ in range(MAX_SWEEPS):
        if signed:
            rows, nodes = np.nonzero(np.abs(residual) > thresholds)
        else:
            rows, nodes = np.nonzero(residual > thresholds)
        if rows.size == 0:
            break
        mass = residual[rows, nodes]
        estimate[rows, nodes] += alpha * mass
        residual[rows, nodes] = 0.0
        out_degs = degrees[nodes]
        edge_ids = ckg.out_edge_ids(nodes)
        if edge_ids.size:
            spread = (mass * inv_degrees[nodes]).repeat(out_degs)
            targets = (rows.repeat(out_degs) * np.int64(num_nodes)
                       + ckg.tails[edge_ids])
            residual += np.bincount(
                targets, weights=spread,
                minlength=batch * num_nodes).reshape(batch, num_nodes)
        ops += int(edge_ids.size) + int(rows.size)
        if touched is not None:
            touched[rows] = True
    return ops
