import itertools

import pytest

from heckedual import satake
from heckedual.rootdatum import coweight_order_key, is_dominant_coweight


def enumerate_dominant(d, height):
    """All dominant coweights with every coordinate bounded by height in
    absolute value, in decreasing dominance-compatible order."""
    found = [v for v in itertools.product(range(-height, height + 1), repeat=d.rank)
             if is_dominant_coweight(d, v)]
    found.sort(key=lambda v: coweight_order_key(d, v))
    return tuple(found)


@pytest.fixture
def fresh_images():
    """Empty the image cache and the expansion memo around a test, so it
    builds and peels cold (and leaves no corrupted image behind)."""
    caches = (satake._images, satake._expansions)
    for cache in caches:
        cache.clear()
    yield
    for cache in caches:
        cache.clear()
