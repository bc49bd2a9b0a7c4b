import pytest

from heckedual import satake


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
