import numpy as np
import pytest

from unimix_lt.sampling import draw_classes
from unimix_lt.theory import check_prior


def _per_sample_draw_batch(ds, prior, batch_size, rng):
    """The per-sample loop `draw_batch` ran before the class-sorted index."""
    p = check_prior(prior)
    if batch_size == 0:
        return np.empty((0, ds.dims)), np.empty(0, dtype=np.int64)
    classes = draw_classes(p, batch_size, rng)
    picks = np.empty(batch_size, dtype=np.int64)
    offsets = rng.random(batch_size)
    for i, k in enumerate(classes):
        members = np.flatnonzero(ds.labels == k)
        picks[i] = members[int(offsets[i] * members.size)]
    return ds.features[picks], ds.labels[picks]


@pytest.fixture
def per_sample_draw_batch():
    """Oracle for `sampling.draw_batch`: same signature, same stream use."""
    return _per_sample_draw_batch
