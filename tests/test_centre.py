"""Reduction of coweights modulo the central lattice: the representatives,
images and expansions of shifted coweights against ones built cold, the
commutativity that the unordered expansion key relies on, and the caches
holding one entry per class."""

import itertools

import pytest

from heckedual import satake
from heckedual.dualdata import langlands_dual_data
from heckedual.lattice import dot, vec_add, vec_scale
from heckedual.rootdatum import BUILTINS, TRIVIAL, RootDatum, dominant_below, require_valid
from heckedual.satake import (
    HeckeExpansion,
    centre_split,
    enumerate_dominant,
    satake_image,
    satake_image_extended,
    structure_polynomials,
)

# one simple root, centre {v : v0 + 2 v1 + 3 v2 = 0} of rank 2, containing
# no coordinate axis
SKEW = require_valid(RootDatum(3, ((1, 2, 3),), ((2, 0, 0),), "skew"))
TORUS = require_valid(RootDatum(2, (), (), "torus"))

# generators of each centre, written out by hand
CENTRE_GENERATORS = {name: () for name in BUILTINS}
CENTRE_GENERATORS.update({
    "GL2": ((1, 1),),
    "GL3": ((1, 1, 1),),
    "skew": ((-2, 1, 0), (-3, 0, 1)),
    "torus": ((1, 0), (0, 1)),
    "trivial": (),
})
DATA = [*BUILTINS.values(), TRIVIAL, SKEW, TORUS]


@pytest.mark.parametrize("d", DATA, ids=lambda d: d.name)
def test_representative_is_canonical(d):
    gens = CENTRE_GENERATORS[d.name]
    for v in itertools.product(range(-3, 4), repeat=d.rank):
        rep, z = centre_split(d, v)
        assert vec_add(rep, z) == v
        assert all(dot(alpha, z) == 0 for alpha in d.simple_roots)
        assert centre_split(d, rep) == (rep, (0,) * d.rank)
        for g in gens:
            for sign in (1, -1):
                assert centre_split(d, vec_add(v, vec_scale(sign, g)))[0] == rep
        if not gens:
            assert rep == v


def test_torus_reduces_to_zero():
    for v in itertools.product(range(-3, 4), repeat=2):
        assert centre_split(TORUS, v) == ((0, 0), v)
    assert centre_split(TRIVIAL, ()) == ((), ())


def cold_image(dd, lam):
    """The image of lam built by the orbit walk, no cache involved."""
    return satake_image_extended(dd, lam).specialize_delta(dd.delta_index)


def cold_expansion(dd, lam, mu):
    """Peel the whole product of two cold images with cold images."""
    product = cold_image(dd, lam) * cold_image(dd, mu)
    coeffs = {}
    for nu in dominant_below(dd.base, vec_add(lam, mu)):
        c = product.coefficient(nu)
        if not c.is_zero():
            coeffs[nu] = c
            product = product - cold_image(dd, nu).scale(c)
    assert product.is_zero()
    return HeckeExpansion(dd.base, coeffs)


@pytest.mark.parametrize("name", ["GL2", "GL3"])
def test_shifted_image_is_shifted_cold_image(name, fresh_images):
    dd = langlands_dual_data(BUILTINS[name])
    (c,) = CENTRE_GENERATORS[name]
    shifts = [vec_scale(k, c) for k in (-2, -1, 1, 3)]
    doms = enumerate_dominant(dd.base, 2)
    for lam in doms:
        for z in shifts:
            shifted = vec_add(lam, z)
            assert satake_image(dd, shifted).poly == cold_image(dd, shifted), (lam, z)
            assert satake_image(dd, shifted).poly == cold_image(dd, lam).shift(z)
    # one cached image per class, no shifted copies
    classes = {centre_split(dd.base, lam)[0] for lam in doms}
    assert satake._satake_image_cached.cache_info().currsize == len(classes)


@pytest.mark.parametrize("name", ["GL2", "GL3"])
def test_shifted_expansion_is_shifted(name, fresh_images):
    dd = langlands_dual_data(BUILTINS[name])
    (c,) = CENTRE_GENERATORS[name]
    doms = enumerate_dominant(dd.base, 1)
    for lam in doms:
        for mu in doms:
            base = structure_polynomials(dd, lam, mu)
            for k1, k2 in ((1, -1), (2, 1), (-1, 0), (0, 3)):
                z1, z2 = vec_scale(k1, c), vec_scale(k2, c)
                got = structure_polynomials(dd, vec_add(lam, z1), vec_add(mu, z2))
                z = vec_add(z1, z2)
                assert got == HeckeExpansion(dd.base, {vec_add(nu, z): e
                                                       for nu, e in base.coeffs.items()})
                assert got == cold_expansion(dd, vec_add(lam, z1), vec_add(mu, z2))
    # one peel per unordered pair of classes
    classes = {centre_split(dd.base, lam)[0] for lam in doms}
    n = len(classes)
    assert satake._peel.cache_info().currsize == n * (n + 1) // 2


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_expansion_is_commutative(name):
    # both orders peeled without the memo: the product, not the key, commutes
    dd = langlands_dual_data(BUILTINS[name])
    peel = satake._peel.__wrapped__
    reps = sorted({centre_split(dd.base, lam)[0] for lam in enumerate_dominant(dd.base, 2)})
    for lam, mu in itertools.combinations(reps, 2):
        assert peel(dd, lam, mu) == peel(dd, mu, lam), (lam, mu)


@pytest.mark.parametrize("name, lam, mu", [
    ("PGL2", (1,), (1,)),
    ("GL2", (2, 0), (1, -1)),
    ("GL3", (1, 0, -1), (2, 1, 1)),
])
def test_mutating_an_expansion_leaves_the_next_call_alone(name, lam, mu):
    dd = langlands_dual_data(BUILTINS[name])
    first = structure_polynomials(dd, lam, mu)
    expected = dict(first.coeffs)
    first.coeffs.clear()
    swapped = structure_polynomials(dd, mu, lam)
    swapped.coeffs.update({nu: c + 1 for nu, c in swapped.coeffs.items()})
    assert structure_polynomials(dd, lam, mu).coeffs == expected
    assert structure_polynomials(dd, mu, lam).coeffs == expected
