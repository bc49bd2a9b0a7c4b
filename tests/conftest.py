import itertools

import pytest

from heckedual import satake
from heckedual.lattice import mat_identity, mat_mul
from heckedual.rootdatum import coweight_order_key, is_dominant_coweight


def simple_reflection_x(d, i):
    """The matrix of s_i on weights, I - alpha_i (x) alphavee_i: a reference
    for ``lattice.reflect`` built entry by entry."""
    alpha, alphavee = d.simple_roots[i], d.simple_coroots[i]
    return tuple(tuple(int(r == c) - alpha[r] * alphavee[c] for c in range(d.rank))
                 for r in range(d.rank))


def simple_reflection_y(d, i):
    """The matrix of s_i on coweights, I - alphavee_i (x) alpha_i."""
    alphavee, alpha = d.simple_coroots[i], d.simple_roots[i]
    return tuple(tuple(int(r == c) - alphavee[r] * alpha[c] for c in range(d.rank))
                 for r in range(d.rank))


def weyl_matrices(d, word):
    """The matrices of the Weyl element with reduced word ``word``, on
    weights and on coweights: the products of the simple reflections above
    along the word."""
    mat_x = mat_y = mat_identity(d.rank)
    for i in word:
        mat_x = mat_mul(mat_x, simple_reflection_x(d, i))
        mat_y = mat_mul(mat_y, simple_reflection_y(d, i))
    return mat_x, mat_y


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
