"""Byte digests of the synthetic datasets and their splits.

Every generated array feeds the golden losses and every reported
recall/ndcg, so a rewrite of the generator, the splits or the graph
constructors must reproduce them byte for byte: the same RNG calls in
the same order, the same arrays out.  ``tests/fixtures/dataset_digests.json``
holds one sha256 per dataset and per split, and
``tests/test_dataset_digests.py`` recomputes and compares them exactly.

Covered:

* every preset at scales 0.3 and 1, seeds 0 and 1, with its traditional,
  new-item (fold 0) and new-user (fold 0) splits;
* ``lastfm_like`` at the end-to-end workload shapes (scales 1, 2, 4 and
  16, seed 0) with its traditional split.

The dataset digest covers ``ui_graph.users/items``,
``kg.heads/relations/tails``, the id-space sizes, ``item_to_entity`` and
``user_triplets``.  A split digest covers the train arrays,
``test_positives`` (users in dict order, each user's items sorted) and
``candidate_items``.

Regenerate (only when an *intentional* change to the generated data
lands)::

    PYTHONPATH=src:. python -m tests.dataset_digests

and say in the commit message why the data moved.
"""

from __future__ import annotations

import hashlib
import json
import os

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures",
                            "dataset_digests.json")

PRESET_SCALES = (0.3, 1.0)
PRESET_SEEDS = (0, 1)
#: ``lastfm_like`` scales of the end-to-end workloads (seed 0)
E2E_SCALES = (1.0, 2.0, 4.0, 16.0)


def _feed(digest, *arrays) -> None:
    """Hash dtype, shape and bytes of each array."""
    import numpy as np

    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())


def dataset_digest(dataset) -> str:
    import numpy as np

    digest = hashlib.sha256()
    ui, kg = dataset.ui_graph, dataset.kg
    digest.update(f"{ui.num_users},{ui.num_items},{kg.num_entities},"
                  f"{kg.num_relations},{dataset.num_user_relations}".encode())
    user_triplets = np.asarray([[int(v) for v in triplet]
                                for triplet in dataset.user_triplets],
                               dtype=np.int64).reshape(-1, 3)
    _feed(digest, ui.users, ui.items, kg.heads, kg.relations, kg.tails,
          dataset.item_to_entity, user_triplets)
    return digest.hexdigest()


def split_digest(split) -> str:
    import numpy as np

    digest = hashlib.sha256()
    digest.update(split.setting.encode())
    users = np.asarray(list(split.test_positives), dtype=np.int64)
    counts = np.asarray([len(items) for items in split.test_positives.values()],
                        dtype=np.int64)
    items = np.asarray([item for user_items in split.test_positives.values()
                        for item in sorted(user_items)], dtype=np.int64)
    candidates = (np.empty(0, dtype=np.int64) if split.candidate_items is None
                  else split.candidate_items)
    digest.update(b"none" if split.candidate_items is None else b"some")
    _feed(digest, split.train.users, split.train.items, users, counts, items,
          candidates)
    return digest.hexdigest()


def covered() -> dict:
    """Fixture key -> ``(preset, scale, seed, settings)`` of every pinned
    dataset."""
    from repro.data import PRESETS

    entries = {}
    for name in PRESETS:
        for scale in PRESET_SCALES:
            for seed in PRESET_SEEDS:
                entries[f"{name}/scale={scale:g}/seed={seed}"] = (
                    name, scale, seed, ("traditional", "new_item", "new_user"))
    for scale in E2E_SCALES:
        entries[f"e2e/lastfm_like/scale={scale:g}/seed=0"] = (
            "lastfm_like", scale, 0, ("traditional",))
    return entries


def compute_entry(key: str) -> dict:
    """Generate one covered dataset and its splits; return their digests."""
    from repro.data import (PRESETS, new_item_split, new_user_split,
                            traditional_split)

    name, scale, seed, settings = covered()[key]
    dataset = PRESETS[name](seed=seed, scale=scale)
    splitters = {
        "traditional": lambda: traditional_split(dataset, seed=seed),
        "new_item": lambda: new_item_split(dataset, fold=0, seed=seed),
        "new_user": lambda: new_user_split(dataset, fold=0, seed=seed),
    }
    entry = {"dataset": dataset_digest(dataset)}
    for setting in settings:
        entry[setting] = split_digest(splitters[setting]())
    return entry


def compute_dataset_digests() -> dict:
    """Digests of every covered dataset, with the numpy that made them."""
    import numpy as np

    return {"numpy": np.__version__,
            "digests": {key: compute_entry(key) for key in covered()}}


def load_dataset_digests() -> dict:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def main() -> None:
    recorded = compute_dataset_digests()
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(recorded, handle, indent=2)
        handle.write("\n")
    print(f"wrote {FIXTURE_PATH} ({len(recorded['digests'])} datasets, "
          f"numpy {recorded['numpy']})")


if __name__ == "__main__":
    main()
