"""Synthetic dataset generators shaped like the paper's benchmarks.

The paper evaluates on Last-FM, Amazon-Book, Alibaba-iFashion (Table II)
and DisGeNet (§V-D).  Those public dumps are unavailable offline, so we
generate datasets that reproduce the *characteristics* the paper's
analysis attributes each dataset's behaviour to.

Generative model
----------------
1. Items belong to communities and link to **shared attribute entities**
   drawn from per-(relation, community) pools, plus **item-unique
   attributes**.  The ``attr_sharing`` knob sets the mix: high sharing =
   a KG that reveals item-item structure (Last-FM/Amazon-Book analogues);
   low sharing = first-order dominance, the paper's description of the
   Alibaba-iFashion KG ("fashion outfit, including, fashion staff"),
   where the KG reveals almost nothing about item similarity.
2. Every user has a **taste**: a sparse set of preferred shared
   attributes.  Interactions are sampled with probability proportional
   to ``popularity × exp(sharpness · |item attrs ∩ taste|)``.  This makes
   the KG signal *fine-grained*: the best items for a user are the ones
   carrying exactly their preferred attributes — not merely items of the
   right community — which is what lets subgraph/path methods rank a
   brand-new item above seen-but-irrelevant items (Tables IV-V), and
   what collaborative filtering recovers only through co-occurrence.
3. Optional extras: attribute-attribute links (KG depth),
   item-item links (DisGeNet's gene-gene), and user-user links between
   users with overlapping tastes (DisGeNet's disease-disease), enabling
   the new-user experiments.

Every generator is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dataset import Dataset
from ..graph import KnowledgeGraph, UserItemGraph


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic CKG generator (see module docstring)."""

    name: str
    num_users: int
    num_items: int
    num_communities: int = 8
    #: mean interactions per user (floored at 2)
    mean_degree: float = 12.0
    #: Zipf exponent of item popularity
    popularity_exponent: float = 0.6
    #: weight of attribute-overlap affinity in interaction sampling;
    #: 0 = pure popularity (KG carries no preference signal)
    affinity_sharpness: float = 2.0
    #: preferred shared attributes per user (their "taste")
    taste_size: int = 4

    # --- item-side KG ---
    #: number of item-attribute relations
    num_attr_relations: int = 4
    #: shared attribute entities per (relation, community)
    attrs_per_community: int = 4
    #: KG links per item per relation (richness)
    links_per_item: float = 1.5
    #: probability a link targets a community-shared attribute rather
    #: than an item-unique one (low = first-order dominance)
    attr_sharing: float = 0.85
    #: add attribute-attribute triplets within communities (KG depth)
    entity_entity_links: bool = True
    #: add an item-item KG relation within communities (gene-gene analogue)
    item_item_relation: bool = False
    #: fraction of KG triplets rewired to random targets (noise)
    kg_noise: float = 0.05

    # --- user-side KG (DisGeNet analogue) ---
    #: user-user links per user (0 disables); links prefer taste overlap
    user_user_links: float = 0.0

    seed: int = 0

    #: force the streamed (vectorized, chunked) sampler on/off; ``None``
    #: auto-enables it at ``STREAM_USER_THRESHOLD`` users.  The streamed
    #: path draws from the same generative model but with a different
    #: random-variate parameterization, so streamed and looped outputs
    #: differ per seed (both are valid draws); presets stay below the
    #: threshold and keep the byte-exact populations pinned by
    #: ``tests/fixtures/dataset_digests.json``.
    stream: Optional[bool] = None

    def scaled(self, scale: float) -> "SyntheticConfig":
        """Return a copy with user/item counts multiplied by ``scale``."""
        clone = SyntheticConfig(**vars(self))
        clone.num_users = max(self.num_communities * 2, int(round(self.num_users * scale)))
        clone.num_items = max(self.num_communities * 2, int(round(self.num_items * scale)))
        return clone


#: user count at which ``generate`` switches to the streamed sampler
STREAM_USER_THRESHOLD = 50_000

#: users sampled per block in the streamed path (bounds peak memory)
STREAM_CHUNK_USERS = 65_536


def generate(config: SyntheticConfig) -> Dataset:
    """Generate a :class:`Dataset` from ``config`` (deterministic per seed)."""
    use_stream = (config.stream if config.stream is not None
                  else config.num_users >= STREAM_USER_THRESHOLD)
    if use_stream:
        return _generate_streamed(config)
    rng = np.random.default_rng(config.seed)

    item_community = rng.integers(0, config.num_communities, size=config.num_items)
    kg, item_shared_attrs = _build_item_kg(rng, config, item_community)

    user_community = rng.integers(0, config.num_communities, size=config.num_users)
    user_tastes = _sample_tastes(rng, config, user_community)

    interactions = _sample_interactions(rng, config, item_shared_attrs,
                                        user_tastes)
    user_triplets, num_user_relations = _build_user_kg(rng, config,
                                                       user_community,
                                                       user_tastes)

    ui_graph = UserItemGraph(config.num_users, config.num_items, interactions)
    return Dataset(
        name=config.name,
        ui_graph=ui_graph,
        kg=kg,
        item_to_entity=np.arange(config.num_items, dtype=np.int64),
        user_triplets=user_triplets,
        num_user_relations=num_user_relations,
    )


# ----------------------------------------------------------------------
# KG construction
# ----------------------------------------------------------------------

def _build_item_kg(rng, config, item_community):
    """Item-attribute (+ optional deeper) triplets.

    Entity layout: items first (identity alignment), then the shared
    attribute pools, then item-unique attributes.

    Returns the KG and, per item, the list of *shared* attribute entity
    ids it links to (used to define user tastes and affinities).
    """
    num_items = config.num_items
    communities = config.num_communities
    apc = config.attrs_per_community
    triplets: List[Tuple[int, int, int]] = []

    shared_offset = num_items
    num_shared = config.num_attr_relations * communities * apc
    unique_offset = shared_offset + num_shared
    num_unique = 0

    item_shared_attrs: List[List[int]] = [[] for _ in range(num_items)]
    for item in range(num_items):
        community = int(item_community[item])
        for relation in range(config.num_attr_relations):
            num_links = int(rng.poisson(config.links_per_item))
            for _ in range(num_links):
                if rng.random() < config.attr_sharing:
                    slot = int(rng.integers(0, apc))
                    target = (shared_offset
                              + (relation * communities + community) * apc + slot)
                    item_shared_attrs[item].append(target)
                else:
                    target = unique_offset + num_unique
                    num_unique += 1
                triplets.append((item, relation, target))

    num_relations = config.num_attr_relations
    num_entities = unique_offset + num_unique

    if config.entity_entity_links:
        ee_relation = num_relations
        num_relations += 1
        for relation in range(config.num_attr_relations):
            for community in range(communities):
                base = shared_offset + (relation * communities + community) * apc
                for slot in range(apc - 1):
                    if rng.random() < 0.5:
                        triplets.append((base + slot, ee_relation, base + slot + 1))

    if config.item_item_relation:
        ii_relation = num_relations
        num_relations += 1
        for community in range(communities):
            members = np.flatnonzero(item_community == community)
            for item in members:
                if members.size > 1 and rng.random() < 0.7:
                    other = int(rng.choice(members))
                    if other != item:
                        triplets.append((int(item), ii_relation, other))

    triplets = _apply_noise(rng, triplets, num_entities, config.kg_noise)
    kg = KnowledgeGraph(num_entities, num_relations,
                        np.asarray(triplets, dtype=np.int64))
    return kg, item_shared_attrs


def _apply_noise(rng, triplets, num_entities, noise):
    """Rewire a ``noise`` fraction of triplet tails to random entities."""
    if noise <= 0 or not triplets:
        return triplets
    rewired = []
    for head, relation, tail in triplets:
        if rng.random() < noise:
            tail = int(rng.integers(0, num_entities))
        rewired.append((head, relation, tail))
    return rewired


# ----------------------------------------------------------------------
# Users: tastes, interactions, user-side KG
# ----------------------------------------------------------------------

def _sample_tastes(rng, config, user_community) -> List[frozenset]:
    """Per user: a sparse set of preferred shared-attribute entities.

    Tastes are drawn mostly from the user's community pools (with a
    little cross-community leakage), so collaborative structure emerges
    from taste overlap rather than being painted on directly.
    """
    communities = config.num_communities
    apc = config.attrs_per_community
    shared_offset = config.num_items

    tastes: List[frozenset] = []
    for user in range(config.num_users):
        community = int(user_community[user])
        preferred = set()
        for _ in range(config.taste_size):
            target_community = community
            if rng.random() < 0.1:  # cross-community leakage
                target_community = int(rng.integers(0, communities))
            relation = int(rng.integers(0, config.num_attr_relations))
            slot = int(rng.integers(0, apc))
            preferred.add(shared_offset
                          + (relation * communities + target_community) * apc + slot)
        tastes.append(frozenset(preferred))
    return tastes


def _sample_interactions(rng, config, item_shared_attrs, user_tastes):
    """Popularity × attribute-affinity interaction sampling.

    Returns the ``(n, 2)`` int64 array of drawn ``(user, item)`` pairs.
    """
    num_items = config.num_items

    # Zipf-like popularity over a random item permutation.
    ranks = rng.permutation(num_items) + 1
    popularity = 1.0 / ranks.astype(np.float64) ** config.popularity_exponent

    # Items linking to each shared attribute, ascending and each once, so
    # one fancy-add per taste attribute counts an item's matches exactly.
    attr_index: Dict[int, List[int]] = {}
    for item, attrs in enumerate(item_shared_attrs):
        for attr in set(attrs):
            attr_index.setdefault(attr, []).append(item)
    attr_items = {attr: np.asarray(items, dtype=np.int64)
                  for attr, items in attr_index.items()}

    chosen: List[np.ndarray] = []
    for taste in user_tastes:
        affinity = np.zeros(num_items)
        for attr in taste:
            if attr in attr_items:
                affinity[attr_items[attr]] += 1.0
        weights = popularity * np.exp(config.affinity_sharpness
                                      * np.minimum(affinity, 3.0))
        weights /= weights.sum()

        degree = max(2, int(rng.poisson(config.mean_degree)))
        degree = min(degree, num_items)
        chosen.append(rng.choice(num_items, size=degree, replace=False,
                                 p=weights))
    users = np.repeat(np.arange(len(chosen), dtype=np.int64),
                      [draws.size for draws in chosen])
    items = (np.concatenate(chosen) if chosen
             else np.empty(0, dtype=np.int64))
    return np.stack([users, items], axis=1)


def _build_user_kg(rng, config, user_community, user_tastes):
    """User-user triplets biased toward taste overlap (disease-disease)."""
    if config.user_user_links <= 0:
        return [], 0
    triplets: List[Tuple[int, int, int]] = []
    for community in range(config.num_communities):
        members = np.flatnonzero(user_community == community)
        if members.size < 2:
            continue
        for user in members:
            taste = user_tastes[user]
            overlaps = np.asarray(
                [len(taste & user_tastes[other]) + 0.25 for other in members])
            overlaps[members == user] = 0.0
            total = overlaps.sum()
            if total <= 0:
                continue
            num_links = int(rng.poisson(config.user_user_links))
            for _ in range(num_links):
                other = int(rng.choice(members, p=overlaps / total))
                triplets.append((int(user), 0, other))
    return triplets, 1


# ----------------------------------------------------------------------
# Streamed generation (generator scale; see docs/storage.md)
# ----------------------------------------------------------------------

def _generate_streamed(config: SyntheticConfig) -> Dataset:
    """Vectorized, chunked analogue of the looped generator.

    Same generative model — community-pooled shared attributes, Zipf
    popularity, taste-affinity interaction mixture — but every stage is
    array-at-a-time and users are sampled in blocks of
    :data:`STREAM_CHUNK_USERS`, so peak memory is bounded by the chunk
    size and the *output* arrays, never by ``num_users`` Python objects.
    This is what makes ``SyntheticConfig.scaled`` usable at ~1M users
    (the ``ppr.scale_mmap`` bench workload and ``--scale`` CLI path).
    """
    rng = np.random.default_rng(config.seed)
    num_items = config.num_items
    communities = config.num_communities
    apc = config.attrs_per_community
    num_rel = config.num_attr_relations

    item_community = rng.integers(0, communities, size=num_items)
    (kg, attr_indptr, attr_items, num_shared) = _build_item_kg_streamed(
        rng, config, item_community)

    user_community = rng.integers(0, communities, size=config.num_users)

    # Zipf-like popularity over a random item permutation, as an
    # inverse-CDF table for O(log n) draws.
    ranks = rng.permutation(num_items) + 1
    popularity = 1.0 / ranks.astype(np.float64) ** config.popularity_exponent
    pop_cdf = np.cumsum(popularity / popularity.sum())
    pop_cdf[-1] = 1.0

    # Per-attribute popularity-weighted CDF over the attribute's item
    # list, packed as one ascending array: entry e of attribute a holds
    # ``a + cdf_within_a[e]``, so a single global searchsorted with key
    # ``a + r`` (r uniform in [0,1)) lands inside a's segment.
    entry_weights = popularity[attr_items]
    seg_lengths = np.diff(attr_indptr)
    totals = np.bincount(np.repeat(np.arange(num_shared), seg_lengths),
                         weights=entry_weights, minlength=num_shared)
    running = np.cumsum(entry_weights)
    seg_base = np.where(attr_indptr[:-1] > 0, running[attr_indptr[:-1] - 1], 0.0)
    within = running - np.repeat(seg_base, seg_lengths)
    within /= np.repeat(np.where(totals > 0.0, totals, 1.0), seg_lengths)
    nonempty = np.flatnonzero(seg_lengths)
    within[attr_indptr[nonempty + 1] - 1] = 1.0  # exact segment ends
    attr_cdf = np.repeat(np.arange(num_shared, dtype=np.float64),
                         seg_lengths) + within

    users_parts: List[np.ndarray] = []
    items_parts: List[np.ndarray] = []
    user_kg_parts: List[np.ndarray] = []
    p_affinity = (config.affinity_sharpness
                  / (1.0 + config.affinity_sharpness))
    for start in range(0, config.num_users, STREAM_CHUNK_USERS):
        stop = min(start + STREAM_CHUNK_USERS, config.num_users)
        chunk = stop - start
        tastes = _sample_tastes_streamed(rng, config,
                                         user_community[start:stop])

        degrees = np.minimum(
            np.maximum(2, rng.poisson(config.mean_degree, size=chunk)),
            num_items)
        draw_user = np.repeat(np.arange(chunk, dtype=np.int64), degrees)
        draws = draw_user.size

        # Mixture: with probability sharpness/(1+sharpness) draw an item
        # carrying one of the user's taste attributes (popularity-
        # weighted within the attribute), else draw by popularity alone.
        # Mirrors the looped sampler's popularity x exp(affinity) tilt.
        taste_slot = rng.integers(0, max(config.taste_size, 1), size=draws)
        attr_of_draw = tastes[draw_user, taste_slot]
        uniform = rng.random(draws)
        affine = ((rng.random(draws) < p_affinity)
                  & (seg_lengths[attr_of_draw] > 0))

        items = np.empty(draws, dtype=np.int64)
        if affine.any():
            keys = attr_of_draw[affine] + uniform[affine]
            items[affine] = attr_items[
                np.searchsorted(attr_cdf, keys, side="right")]
        plain = ~affine
        items[plain] = np.searchsorted(pop_cdf, uniform[plain], side="right")

        pair_keys = np.unique((start + draw_user) * np.int64(num_items)
                              + items)
        users_parts.append(pair_keys // num_items)
        items_parts.append(pair_keys % num_items)

        if config.user_user_links > 0:
            user_kg_parts.append(_user_links_streamed(
                rng, config, user_community, start, stop))

    interactions = np.stack([np.concatenate(users_parts),
                             np.concatenate(items_parts)], axis=1)
    ui_graph = UserItemGraph(config.num_users, num_items, interactions)

    if config.user_user_links > 0:
        links = (np.concatenate(user_kg_parts) if user_kg_parts
                 else np.empty((0, 3), dtype=np.int64))
        user_triplets, num_user_relations = links.tolist(), 1
    else:
        user_triplets, num_user_relations = [], 0

    return Dataset(
        name=config.name,
        ui_graph=ui_graph,
        kg=kg,
        item_to_entity=np.arange(num_items, dtype=np.int64),
        user_triplets=user_triplets,
        num_user_relations=num_user_relations,
    )


def _build_item_kg_streamed(rng, config, item_community):
    """Vectorized item-side KG; returns the KG plus a CSR over shared
    attributes (``attr_indptr``/``attr_items``: items linked to each
    shared-attribute ordinal, the affinity index of the streamed
    interaction sampler)."""
    num_items = config.num_items
    communities = config.num_communities
    apc = config.attrs_per_community
    shared_offset = num_items
    num_shared = config.num_attr_relations * communities * apc
    unique_offset = shared_offset + num_shared

    heads_parts: List[np.ndarray] = []
    rel_parts: List[np.ndarray] = []
    tail_parts: List[np.ndarray] = []
    shared_item_parts: List[np.ndarray] = []
    shared_ord_parts: List[np.ndarray] = []
    num_unique = 0
    for relation in range(config.num_attr_relations):
        links = rng.poisson(config.links_per_item, size=num_items)
        heads = np.repeat(np.arange(num_items, dtype=np.int64), links)
        shared = rng.random(heads.size) < config.attr_sharing
        slots = rng.integers(0, apc, size=heads.size)
        pools = (relation * communities + item_community[heads]) * apc + slots
        targets = np.empty(heads.size, dtype=np.int64)
        targets[shared] = shared_offset + pools[shared]
        fresh = int(np.count_nonzero(~shared))
        targets[~shared] = (unique_offset + num_unique
                            + np.arange(fresh, dtype=np.int64))
        num_unique += fresh
        heads_parts.append(heads)
        rel_parts.append(np.full(heads.size, relation, dtype=np.int64))
        tail_parts.append(targets)
        shared_item_parts.append(heads[shared])
        shared_ord_parts.append(pools[shared])

    num_relations = config.num_attr_relations
    num_entities = unique_offset + num_unique

    if config.entity_entity_links:
        ee_relation = num_relations
        num_relations += 1
        chain_heads = (shared_offset
                       + (np.arange(config.num_attr_relations * communities,
                                    dtype=np.int64) * apc)[:, None]
                       + np.arange(max(apc - 1, 0), dtype=np.int64)[None, :]
                       ).ravel()
        keep = rng.random(chain_heads.size) < 0.5
        chain_heads = chain_heads[keep]
        heads_parts.append(chain_heads)
        rel_parts.append(np.full(chain_heads.size, ee_relation, dtype=np.int64))
        tail_parts.append(chain_heads + 1)

    if config.item_item_relation:
        ii_relation = num_relations
        num_relations += 1
        for community in range(communities):
            members = np.flatnonzero(item_community == community)
            if members.size < 2:
                continue
            linked = members[rng.random(members.size) < 0.7]
            partners = members[rng.integers(0, members.size,
                                            size=linked.size)]
            keep = partners != linked
            heads_parts.append(linked[keep])
            rel_parts.append(np.full(int(keep.sum()), ii_relation,
                                     dtype=np.int64))
            tail_parts.append(partners[keep])

    heads = np.concatenate(heads_parts) if heads_parts \
        else np.empty(0, dtype=np.int64)
    relations = np.concatenate(rel_parts) if rel_parts \
        else np.empty(0, dtype=np.int64)
    tails = np.concatenate(tail_parts) if tail_parts \
        else np.empty(0, dtype=np.int64)

    if config.kg_noise > 0 and tails.size:
        rewire = rng.random(tails.size) < config.kg_noise
        tails = tails.copy()
        tails[rewire] = rng.integers(0, num_entities,
                                     size=int(rewire.sum()))

    kg = KnowledgeGraph(num_entities, num_relations,
                        np.stack([heads, relations, tails], axis=1))

    # CSR of shared-attribute ordinal -> linked items, entries grouped by
    # ordinal (stable order within a group is irrelevant: lookups are
    # weighted by popularity, not position).
    shared_items = np.concatenate(shared_item_parts) if shared_item_parts \
        else np.empty(0, dtype=np.int64)
    shared_ords = np.concatenate(shared_ord_parts) if shared_ord_parts \
        else np.empty(0, dtype=np.int64)
    order = np.argsort(shared_ords, kind="stable")
    attr_items = shared_items[order]
    counts = np.bincount(shared_ords, minlength=num_shared)
    attr_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return kg, attr_indptr, attr_items, num_shared


def _sample_tastes_streamed(rng, config, chunk_community):
    """Tastes for one user chunk as a ``(chunk, taste_size)`` array of
    shared-attribute *ordinals* (repeats across a row are allowed —
    unlike the looped path's sets — which slightly lowers effective
    taste diversity but keeps the draw fully vectorized)."""
    communities = config.num_communities
    apc = config.attrs_per_community
    shape = (chunk_community.size, max(config.taste_size, 1))
    target = np.broadcast_to(chunk_community[:, None], shape).copy()
    leak = rng.random(shape) < 0.1  # cross-community leakage
    target[leak] = rng.integers(0, communities, size=int(leak.sum()))
    relation = rng.integers(0, config.num_attr_relations, size=shape)
    slot = rng.integers(0, apc, size=shape)
    return (relation * communities + target) * apc + slot


def _user_links_streamed(rng, config, user_community, start, stop):
    """User-user triplets for one chunk: Poisson link counts, partners
    uniform within the user's community (the looped path's taste-overlap
    bias is dropped — at stream scale community co-membership already
    encodes the overlap signal).  Returns an ``(n, 3)`` array."""
    counts = rng.poisson(config.user_user_links, size=stop - start)
    heads = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
    if not heads.size:
        return np.empty((0, 3), dtype=np.int64)
    order = np.argsort(user_community, kind="stable")
    comm_counts = np.bincount(user_community,
                              minlength=config.num_communities)
    comm_indptr = np.concatenate([[0], np.cumsum(comm_counts)])
    head_comm = user_community[heads]
    offsets = rng.integers(0, np.maximum(comm_counts[head_comm], 1))
    partners = order[comm_indptr[head_comm] + offsets]
    keep = (partners != heads) & (comm_counts[head_comm] > 1)
    heads = heads[keep]
    partners = partners[keep]
    return np.stack([heads, np.zeros(heads.size, dtype=np.int64),
                     partners], axis=1)


# ----------------------------------------------------------------------
# Presets mirroring Table II's dataset characteristics (scaled ~100x down)
# ----------------------------------------------------------------------

def lastfm_like(seed: int = 0, scale: float = 1.0) -> Dataset:
    """Last-FM analogue: dense interactions, rich attribute-shared KG."""
    config = SyntheticConfig(
        name="lastfm_like",
        num_users=200, num_items=400,
        num_communities=8,
        mean_degree=14.0,
        affinity_sharpness=2.2,
        taste_size=4,
        num_attr_relations=4,
        attrs_per_community=4,
        links_per_item=2.0,
        attr_sharing=0.9,
        entity_entity_links=True,
        kg_noise=0.03,
        seed=seed,
    ).scaled(scale)
    return generate(config)


def amazon_book_like(seed: int = 0, scale: float = 1.0) -> Dataset:
    """Amazon-Book analogue: many users, KG with many relations, dense."""
    config = SyntheticConfig(
        name="amazon_book_like",
        num_users=350, num_items=160,
        num_communities=8,
        mean_degree=10.0,
        affinity_sharpness=2.0,
        taste_size=4,
        num_attr_relations=8,
        attrs_per_community=3,
        links_per_item=2.0,
        attr_sharing=0.85,
        entity_entity_links=True,
        kg_noise=0.05,
        seed=seed,
    ).scaled(scale)
    return generate(config)


def alibaba_ifashion_like(seed: int = 0, scale: float = 1.0) -> Dataset:
    """Alibaba-iFashion analogue: first-order-dominated, information-poor KG.

    Most triplets point at item-unique attributes (``attr_sharing`` low)
    and preference follows popularity more than attributes
    (``affinity_sharpness`` low), matching the paper's observation that
    the iFashion KG reveals little item-item structure and that simple
    CF/embedding methods are more effective there (Tables III-IV).
    """
    config = SyntheticConfig(
        name="alibaba_ifashion_like",
        num_users=420, num_items=500,
        num_communities=8,
        mean_degree=6.0,
        popularity_exponent=1.25,
        affinity_sharpness=0.35,
        taste_size=3,
        num_attr_relations=4,
        attrs_per_community=2,
        links_per_item=2.0,
        attr_sharing=0.08,
        entity_entity_links=False,
        kg_noise=0.25,
        seed=seed,
    ).scaled(scale)
    return generate(config)


def disgenet_like(seed: int = 0, scale: float = 1.0) -> Dataset:
    """DisGeNet analogue: diseases (users) × genes (items) with a
    biological KG: gene-gene, gene-GO, gene-pathway, disease-disease."""
    config = SyntheticConfig(
        name="disgenet_like",
        num_users=280, num_items=240,
        num_communities=10,
        mean_degree=10.0,
        affinity_sharpness=2.2,
        taste_size=3,
        num_attr_relations=2,          # gene-GO, gene-pathway
        attrs_per_community=3,
        links_per_item=2.0,
        attr_sharing=0.85,
        entity_entity_links=True,      # GO-GO hierarchy links
        item_item_relation=True,       # gene-gene
        user_user_links=2.5,           # disease-disease
        kg_noise=0.03,
        seed=seed,
    ).scaled(scale)
    return generate(config)


PRESETS = {
    "lastfm_like": lastfm_like,
    "amazon_book_like": amazon_book_like,
    "alibaba_ifashion_like": alibaba_ifashion_like,
    "disgenet_like": disgenet_like,
}
