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

and so does the chunk loop around it:

* :func:`reference_forward_push_batch` — allocates a fresh pair of
  zero arrays for every chunk, bitwise equal to both
  ``forward_push_batch`` and ``forward_push_sharded`` (which reuse one
  pair per solve) in every score and residual array, the residual total
  and the ``ppr.push_ops`` / ``ppr.users`` counters.

Incremental maintenance keeps the whole-part loop it replaced:

* :func:`reference_incremental_push` — densifies, corrects, re-sweeps
  and re-encodes every part, carrying the parts whose rows did not
  move; bitwise equal to ``repro.ppr.incremental_push`` in every score
  and residual array, ``changed_users``, ``push_ops`` and the shards it
  rewrites.  Only the per-part ``residual`` totals differ, by the
  float32 rounding of the stored entries.

Dataset construction keeps the Python loops and tuple paths that the
array code replaced; each is bitwise equal to its replacement (arrays,
dtypes, RNG state afterwards, ``ValueError`` messages):

* :func:`reference_sample_interactions` — one ``+= 1.0`` per (taste
  attribute, item), equal to ``repro.data.synthetic._sample_interactions``;
* :func:`reference_user_item_arrays` / :func:`reference_knowledge_arrays`
  — the ``sorted(set(...))`` tuple paths of the ``UserItemGraph`` and
  ``KnowledgeGraph`` constructors;
* :func:`reference_traditional_split` — per-user sets and pair lists,
  equal to ``repro.data.traditional_split``;
* :func:`reference_top_k_per_group` — lexsorts every expanded edge,
  equal to ``repro.sampling.computation_graph._top_k_per_group``, which
  ranks only the groups larger than K.

Degree-normalized pruning keeps the two store divisions it replaced;
the pruner divides each looked-up score instead, and must rank exactly
as it did on the divided stores:

* :func:`reference_degree_normalized_dense` — the trainer's dense
  float64 ``scores / max(deg, 1)[None, :]``;
* :func:`reference_degree_normalized_csr` — the CSR stores' float32
  ``values /= max(deg, 1)[node_ids]``, on a copy.
"""

import numpy as np

from repro.autodiff import Tensor, gather_rows, segment_sum
from repro.ppr import SparsePPRScores


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


def reference_forward_push_batch(ckg, users, alpha=0.15, epsilon=1e-4,
                                 top_m=256, chunk_users=64,
                                 keep_residuals=False):
    """``forward_push_batch`` with fresh zero arrays for every chunk."""
    from repro import telemetry
    from repro.ppr.push import (_encode_chunk, _sweep_chunk,
                                concat_sparse_scores)

    user_array = np.asarray(list(users), dtype=np.int64)
    num_nodes = ckg.num_nodes
    degrees = np.diff(ckg.indptr)
    inv_degrees = (1.0 - alpha) / np.maximum(degrees, 1)
    thresholds = epsilon * degrees.astype(np.float64)
    parts = []
    total_pushes = 0
    for start in range(0, user_array.size, chunk_users):
        chunk = user_array[start:start + chunk_users]
        batch = chunk.size
        estimate = np.zeros((batch, num_nodes))
        residual = np.zeros((batch, num_nodes))
        residual[np.arange(batch), chunk] = 1.0
        total_pushes += _sweep_chunk(ckg, estimate, residual, thresholds,
                                     degrees, inv_degrees, alpha)
        parts.append(_encode_chunk(
            chunk, estimate, residual if keep_residuals else None,
            float(residual.sum()), alpha, epsilon,
            top_m=None if keep_residuals else top_m))
    telemetry.counter("ppr.push_ops", total_pushes)
    telemetry.counter("ppr.users", user_array.size)
    return concat_sparse_scores(parts)


def reference_incremental_push(ckg, scores, new_interactions,
                               chunk_users=64):
    """``incremental_push`` densifying and re-encoding whole parts."""
    from repro.ppr.push import (IncrementalPushResult, _apply_delta_chunk,
                                _delta_edges, _encode_chunk, _to_dense)

    alpha = float(scores.alpha)
    epsilon = float(scores.epsilon)
    pairs = [(int(u), int(i)) for u, i in new_interactions]
    new_ckg = ckg.add_interactions(pairs)
    num_nodes = ckg.num_nodes
    ins_heads, ins_tails, deg_at = _delta_edges(ckg, pairs)
    new_degrees = np.diff(new_ckg.indptr)
    inv_degrees = (1.0 - alpha) / np.maximum(new_degrees, 1)
    thresholds = epsilon * new_degrees.astype(np.float64)
    sweep_ops = []
    changed = []

    def maintained():
        for part in scores.parts(chunk_users):
            estimate = _to_dense(part.indptr, part.node_ids,
                                 part.values, num_nodes)
            residual = _to_dense(part.res_indptr, part.res_node_ids,
                                 part.res_values, num_nodes)
            ops, touched = _apply_delta_chunk(
                new_ckg, estimate, residual, ins_heads, ins_tails,
                deg_at, alpha, thresholds, new_degrees, inv_degrees)
            sweep_ops.append(ops)
            changed.append(part.users[touched])
            mass = float(np.abs(residual).sum())
            if touched.any():
                yield _encode_chunk(part.users, estimate, residual,
                                    mass, alpha, epsilon), True
            else:
                part.residual = mass
                yield part, False

    new_scores = scores.rewrite(maintained())
    return IncrementalPushResult(
        ckg=new_ckg, scores=new_scores,
        changed_users=np.concatenate(changed),
        push_ops=sum(sweep_ops) + int(ins_heads.size))


def reference_sample_interactions(rng, config, item_shared_attrs, user_tastes):
    """Popularity × attribute-affinity sampling with per-item Python adds;
    returns the list of ``(user, item)`` tuples."""
    num_items = config.num_items
    ranks = rng.permutation(num_items) + 1
    popularity = 1.0 / ranks.astype(np.float64) ** config.popularity_exponent

    attr_index = {}
    for item, attrs in enumerate(item_shared_attrs):
        for attr in set(attrs):
            attr_index.setdefault(attr, []).append(item)

    pairs = []
    for user, taste in enumerate(user_tastes):
        affinity = np.zeros(num_items)
        for attr in taste:
            for item in attr_index.get(attr, ()):
                affinity[item] += 1.0
        weights = popularity * np.exp(config.affinity_sharpness
                                      * np.minimum(affinity, 3.0))
        weights /= weights.sum()

        degree = max(2, int(rng.poisson(config.mean_degree)))
        degree = min(degree, num_items)
        chosen = rng.choice(num_items, size=degree, replace=False, p=weights)
        pairs.extend((user, int(item)) for item in chosen)
    return pairs


def reference_user_item_arrays(num_users, num_items, interactions):
    """``(users, items)`` of ``UserItemGraph`` through sorted tuple sets."""
    pairs = sorted(set((int(u), int(i)) for u, i in interactions))
    if pairs:
        users = np.fromiter((p[0] for p in pairs), dtype=np.int64,
                            count=len(pairs))
        items = np.fromiter((p[1] for p in pairs), dtype=np.int64,
                            count=len(pairs))
    else:
        users = np.empty(0, dtype=np.int64)
        items = np.empty(0, dtype=np.int64)
    if users.size:
        if users.min() < 0 or users.max() >= num_users:
            raise ValueError("interaction user id out of range")
        if items.min() < 0 or items.max() >= num_items:
            raise ValueError("interaction item id out of range")
    return users, items


def reference_knowledge_arrays(num_entities, num_relations, triplets):
    """``(heads, relations, tails)`` of ``KnowledgeGraph`` through sorted
    tuple sets."""
    unique = sorted(set((int(h), int(r), int(t)) for h, r, t in triplets))
    if unique:
        array = np.asarray(unique, dtype=np.int64)
        heads = array[:, 0].copy()
        relations = array[:, 1].copy()
        tails = array[:, 2].copy()
    else:
        heads = np.empty(0, dtype=np.int64)
        relations = np.empty(0, dtype=np.int64)
        tails = np.empty(0, dtype=np.int64)
    if heads.size:
        entity_ids = np.concatenate([heads, tails])
        if entity_ids.min() < 0 or entity_ids.max() >= num_entities:
            raise ValueError("triplet entity id out of range")
        if relations.min() < 0 or relations.max() >= num_relations:
            raise ValueError("triplet relation id out of range")
    return heads, relations, tails


def reference_traditional_split(dataset, test_fraction=0.2, seed=0):
    """``(train_users, train_items, test_positives)`` of the per-user
    holdout split, looping over each user's positive set."""
    rng = np.random.default_rng(seed)
    ui = dataset.ui_graph
    train_pairs = []
    test_map = {}
    for user in ui.users_with_interactions():
        items = sorted(ui.positives(user))
        if len(items) < 2:
            train_pairs.extend((user, item) for item in items)
            continue
        shuffled = list(items)
        rng.shuffle(shuffled)
        num_test = max(1, int(round(len(items) * test_fraction)))
        num_test = min(num_test, len(items) - 1)
        held = set(shuffled[:num_test])
        test_map[user] = held
        train_pairs.extend((user, item) for item in items if item not in held)

    users, items = reference_user_item_arrays(ui.num_users, ui.num_items,
                                              train_pairs)
    trained_items = {int(i) for i in items}
    cleaned = {user: {i for i in held if i in trained_items}
               for user, held in test_map.items()}
    cleaned = {user: held for user, held in cleaned.items() if held}
    return users, items, cleaned


def reference_top_k_per_group(groups, scores, k):
    """Sorted indices of each group's ``k`` best scores, every element
    ranked by one lexsort."""
    order = np.lexsort((-scores, groups))
    sorted_groups = groups[order]
    is_start = np.empty(sorted_groups.size, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=is_start[1:])
    group_start = np.maximum.accumulate(
        np.where(is_start, np.arange(sorted_groups.size), 0))
    rank = np.arange(sorted_groups.size) - group_start
    return np.sort(order[rank < k])


def reference_degree_normalized_dense(scores, ckg):
    """Dense score rows divided by ``max(outdeg, 1)`` per column, float64."""
    degrees = np.diff(ckg.indptr).astype(np.float64)
    return scores / np.maximum(degrees, 1.0)[None, :]


def reference_degree_normalized_csr(scores, ckg):
    """A copy of CSR score rows with each value divided, in float32, by
    its node's ``max(outdeg, 1)``."""
    degrees = np.maximum(np.diff(ckg.indptr).astype(np.float64), 1.0)
    values = np.array(scores.values)
    values /= degrees[scores.node_ids].astype(np.float32)
    return SparsePPRScores(users=scores.users, num_nodes=scores.num_nodes,
                           indptr=scores.indptr, node_ids=scores.node_ids,
                           values=values, residual=scores.residual)
