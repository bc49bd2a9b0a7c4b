"""Keying by the class modulo the central lattice: images and expansions
of shifted coweights against ones built cold, whatever coweight first
represents a class, the commutativity that the unordered expansion key
relies on, and the caches holding one entry per class."""

import itertools

import pytest

from heckedual import dualdata, satake
from heckedual.dualdata import langlands_dual_data
from heckedual.errors import RankMismatchError
from heckedual.lattice import GroupAlgebraElement, Laurent, dot, vec_add, vec_scale
from heckedual.rootdatum import (
    BUILTINS,
    TRIVIAL,
    RootDatum,
    dominance_leq,
    dominant_below,
    is_dominant_coweight,
    require_valid,
)
from heckedual.satake import (
    HeckeExpansion,
    satake_image,
    satake_image_extended,
    structure_polynomials,
)

from conftest import enumerate_dominant, reference_image

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


def pairings(d, v):
    return tuple(dot(alpha, v) for alpha in d.simple_roots)


def cold_expansion(dd, lam, mu):
    """Peel the whole product of two reference images with reference images."""
    product = reference_image(dd, lam) * reference_image(dd, mu)
    coeffs = {}
    for nu in dominant_below(dd.base, vec_add(lam, mu)):
        c = product.coefficient(nu)
        if not c.is_zero():
            coeffs[nu] = c
            product = product - reference_image(dd, nu).scale(c)
    assert product.is_zero()
    return HeckeExpansion(dd.base, coeffs)


@pytest.mark.parametrize("d", DATA, ids=lambda d: d.name)
def test_representative_is_canonical(d, fresh_images):
    # the class key of a coweight is its tuple of pairings with the simple
    # roots, so a shift by a central generator stays in its class (a torus
    # has one class, the trivial datum one coweight)
    dd = langlands_dual_data(d)
    doms = enumerate_dominant(d, 2)
    for lam in doms:
        for g in CENTRE_GENERATORS[d.name]:
            for sign in (1, -1):
                shifted = vec_add(lam, vec_scale(sign, g))
                assert satake_image(dd, shifted).poly == reference_image(dd, shifted), (lam, shifted)
        assert satake_image(dd, lam).poly == reference_image(dd, lam), lam
    assert len(satake._images) == len({pairings(d, lam) for lam in doms})
    if d is TORUS:
        assert len(satake._images) == 1


def test_torus_reduces_to_zero(fresh_images):
    # with no roots every coweight is central: it falls into the class of 0,
    # its image is e^v, and a product of two is the basis element of the sum
    dd = langlands_dual_data(TORUS)
    one = reference_image(dd, (0, 0))
    for v in itertools.product(range(-3, 4), repeat=2):
        assert pairings(TORUS, v) == pairings(TORUS, (0, 0)) == ()
        assert satake_image(dd, v).poly == one.shift(v) == reference_image(dd, v), v
        assert structure_polynomials(dd, v, (1, -2)) == cold_expansion(dd, v, (1, -2)), v
    assert len(satake._images) == 1
    assert len(satake._expansions) == 1
    trivial = langlands_dual_data(TRIVIAL)
    assert satake_image(trivial, ()).poly == reference_image(trivial, ())
    assert len(satake._images) == 2


def test_wrong_rank_is_refused_after_the_class_is_cached(fresh_images):
    # a torus has one class, so a coweight of the wrong rank would find the
    # cached image of (1, 2) unless its rank is checked first
    dd = langlands_dual_data(TORUS)
    satake_image(dd, (1, 2))
    structure_polynomials(dd, (1, 2), (1, 2))
    match = "pairing of vectors of ranks 2 and 3"
    with pytest.raises(RankMismatchError, match=match):
        satake_image(dd, (1, 2, 3))
    with pytest.raises(RankMismatchError, match=match):
        structure_polynomials(dd, (1, 2), (1, 2, 3))
    with pytest.raises(RankMismatchError, match=match):
        structure_polynomials(dd, (1, 2, 3), (1, 2))
    with pytest.raises(RankMismatchError, match=match):
        satake_image_extended(dd, (1, 2, 3))
    with pytest.raises(RankMismatchError, match=match):
        dominant_below(TORUS, (1, 2, 3))
    # neither the dominance order nor a coefficient lookup truncates to the
    # shorter vector
    gl2 = BUILTINS["GL2"]
    with pytest.raises(RankMismatchError, match=match):
        dominance_leq(gl2, (5, 5, 9), (6, 4))
    with pytest.raises(RankMismatchError, match=match):
        structure_polynomials(langlands_dual_data(gl2), (1, 0), (1, 0)).get((2, 0, 7))


@pytest.mark.parametrize("name", ["GL2", "GL3"])
def test_shifted_image_is_shifted_cold_image(name, fresh_images):
    dd = langlands_dual_data(BUILTINS[name])
    (c,) = CENTRE_GENERATORS[name]
    shifts = [vec_scale(k, c) for k in (-2, -1, 1, 3)]
    doms = enumerate_dominant(dd.base, 2)
    for lam in doms:
        for z in shifts:
            shifted = vec_add(lam, z)
            assert satake_image(dd, shifted).poly == reference_image(dd, shifted), (lam, z)
            assert satake_image(dd, shifted).poly == reference_image(dd, lam).shift(z)
    # one cached image per class, no shifted copies
    assert len(satake._images) == len({pairings(dd.base, lam) for lam in doms})


@pytest.mark.parametrize("d", list(BUILTINS.values()), ids=lambda d: d.name)
def test_images_are_stored_by_their_dominant_coefficients(d, fresh_images):
    # an image holds its coefficients at the dominant coweights, those of
    # the tuple walk, and fills no orbit until poly is read; an image handed
    # out at another member of a class has its dominant coefficients shifted
    dd = langlands_dual_data(d)
    shifts = [vec_scale(k, g) for g in CENTRE_GENERATORS[d.name] for k in (-2, -1, 1, 3)]
    for lam in enumerate_dominant(d, 3):
        image = satake_image(dd, lam)
        assert "poly" not in vars(image), lam
        want = {y: c for y, c in reference_image(dd, lam).items() if is_dominant_coweight(d, y)}
        assert image.dominant == GroupAlgebraElement(d.rank, want), lam
        for z in shifts:
            shifted = satake_image(dd, vec_add(lam, z))
            assert "poly" not in vars(shifted), (lam, z)
            assert shifted.dominant == image.dominant.shift(z), (lam, z)


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
    n = len({pairings(dd.base, lam) for lam in doms})
    assert len(satake._expansions) == n * (n + 1) // 2


@pytest.mark.parametrize("name", ["GL2", "GL3", "skew"])
def test_caches_do_not_depend_on_the_order_of_filling(name, fresh_images):
    # fill both caches shifted coweights first, then in reverse order, so
    # the first coweight of each class differs between the two fillings
    d = {x.name: x for x in DATA}[name]
    dd = langlands_dual_data(d)
    g = CENTRE_GENERATORS[name][0]
    doms = enumerate_dominant(d, 1)
    coweights = [vec_add(lam, g) for lam in doms] + list(doms)
    pairs = ([(vec_add(lam, g), mu) for lam in doms for mu in doms]
             + [(lam, mu) for lam in doms for mu in doms])
    images = {lam: reference_image(dd, lam) for lam in coweights}
    expansions = {pair: cold_expansion(dd, *pair) for pair in pairs}
    for order in (1, -1):
        satake._images.clear()
        satake._expansions.clear()
        for lam, mu in pairs[::order]:
            assert structure_polynomials(dd, lam, mu) == expansions[lam, mu], (lam, mu)
        for lam in coweights[::order]:
            assert satake_image(dd, lam).poly == images[lam], lam


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_expansion_is_commutative(name):
    # both orders peeled without the memo: the product, not the key, commutes
    dd = langlands_dual_data(BUILTINS[name])
    reps = {pairings(dd.base, lam): lam for lam in enumerate_dominant(dd.base, 2)}
    for (p, lam), (r, mu) in itertools.combinations(sorted(reps.items(), key=lambda pv: pv[1]), 2):
        assert satake._peel(dd, lam, p, mu, r) == satake._peel(dd, mu, r, lam, p), (lam, mu)


def times(dd, expansion, mu, left):
    """The expansion of (sum_nu a_nu S(nu)) S(mu), each S(nu) S(mu) expanded
    by structure_polynomials with S(mu) on the given side."""
    out = {}
    for nu, a in expansion.items():
        for rho, b in structure_polynomials(dd, *((mu, nu) if left else (nu, mu))).items():
            out[rho] = out.get(rho, Laurent.zero()) + a * b
    return HeckeExpansion(dd.base, out)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_expansion_is_associative(name):
    # (S(a) S(b)) S(c) = S(a) (S(b) S(c)) for every unordered triple, both
    # sides through the cached expansions, shifted across centre classes;
    # GL3 stops at height 1 to keep the suite fast
    dd = langlands_dual_data(BUILTINS[name])
    doms = enumerate_dominant(dd.base, 1 if name == "GL3" else 2)
    for a, b, c in itertools.combinations_with_replacement(doms, 3):
        assert (times(dd, structure_polynomials(dd, a, b), c, left=False)
                == times(dd, structure_polynomials(dd, b, c), a, left=True)), (a, b, c)


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


def test_cached_image_is_frozen():
    # satake_image hands out the cached image itself (PGL2 has no centre to
    # shift it by), so it must not be assignable: a shifted poly would reach
    # every later call and every peel that reads it
    dd = langlands_dual_data(BUILTINS["PGL2"])
    image = satake_image(dd, (2,))
    with pytest.raises(AttributeError, match="cannot assign to field 'poly'"):
        image.poly = image.poly.shift((5,))
    assert satake_image(dd, (2,)) is image
    assert image.poly == reference_image(dd, (2,))


def test_equal_datum_hits_the_caches(fresh_images):
    # the caches key on the dual data, whose hash is computed once when it
    # is built: a fresh equal instance must find the same entries
    d = BUILTINS["GL3"]
    dd, fresh = langlands_dual_data(d), dualdata._dual_data.__wrapped__(d, d.name)
    assert fresh is not dd and hash(fresh) == hash(dd)
    image = satake_image(dd, (1, 0, 0))
    expansion = structure_polynomials(dd, (1, 0, 0), (0, 0, -1))
    sizes = len(satake._images), len(satake._expansions)
    assert satake_image(fresh, (1, 0, 0)) is image
    assert structure_polynomials(fresh, (0, 0, -1), (1, 0, 0)) == expansion
    assert (len(satake._images), len(satake._expansions)) == sizes
