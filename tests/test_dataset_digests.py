"""Byte-for-byte guard of the generated datasets and their splits.

``tests/fixtures/dataset_digests.json`` holds a sha256 of every pinned
dataset and split (see ``tests/dataset_digests.py`` for what each covers
and how to regenerate).  A mismatch means a change moved the generated
arrays, the splits or the graph constructors' output — or the numpy
that draws the random variates differs from the one that recorded them;
the failure names both versions.
"""

import numpy as np
import pytest

from .dataset_digests import compute_entry, covered, load_dataset_digests


@pytest.fixture(scope="module")
def recorded():
    return load_dataset_digests()


def test_fixture_covers_every_pinned_dataset(recorded):
    assert set(recorded["digests"]) == set(covered())
    assert recorded["numpy"]


@pytest.mark.parametrize("key", list(covered()))
def test_dataset_and_splits_byte_identical(recorded, key):
    expected = recorded["digests"][key]
    entry = compute_entry(key)
    moved = [part for part in expected if entry.get(part) != expected[part]]
    assert entry == expected, (
        f"{key}: {', '.join(moved) or 'parts'} differ from the recording "
        f"(recorded with numpy {recorded['numpy']}, running numpy "
        f"{np.__version__})")
