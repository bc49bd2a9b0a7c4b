"""The chamber-only peel and the closed-form Weyl denominator ratio against
the whole-product computations they replace, and the tripwires that make
the chamber-only remainder check as strong as the whole one."""

import pytest

from heckedual import satake
from heckedual.dualdata import langlands_dual_data
from heckedual.lattice import GroupAlgebraElement, Laurent, vec_add
from heckedual.rootdatum import BUILTINS, dominant_below, positive_roots, weyl_group
from heckedual.satake import (
    HeckeExpansion,
    SphericalFunction,
    denominator_ratio,
    dot_act_poly,
    enumerate_dominant,
    lift_exponent,
    satake_image,
    satake_image_extended,
    structure_polynomials,
)

DD_PGL2 = langlands_dual_data(BUILTINS["PGL2"])


def full_product_peel(dd, lam, mu):
    """Reference: form the whole product of the two images and peel it
    with whole-element subtractions, down to a zero remainder."""
    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    product = satake_image(dd, lam).poly * satake_image(dd, mu).poly
    top = vec_add(lam, mu)
    coeffs = {}
    for nu in dominant_below(dd.base, top):
        c = product.coefficient(nu)
        if c.is_zero():
            continue
        coeffs[nu] = c
        product = product - satake_image(dd, nu).poly.scale(c)
    assert product.is_zero()
    assert coeffs.get(top) == Laurent.one()
    return HeckeExpansion(dd.base, coeffs)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_chamber_peel_matches_full_product(name):
    dd = langlands_dual_data(BUILTINS[name])
    doms = enumerate_dominant(dd.base, 2)
    for lam in doms:
        for mu in doms:
            assert structure_polynomials(dd, lam, mu) == full_product_peel(dd, lam, mu), (lam, mu)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_denominator_ratio_closed_form(name):
    ext = langlands_dual_data(BUILTINS[name]).ext
    one = GroupAlgebraElement.one(ext.rank)
    delta = one
    for betavee in positive_roots(ext)[1]:
        delta = delta * (one - GroupAlgebraElement.monomial(tuple(-x for x in betavee)))
    for w in weyl_group(ext):
        assert delta.exact_div(delta.apply_map(w.mat_y)) == denominator_ratio(ext, w), w.word


@pytest.mark.parametrize("name", ["PGL2", "GL3", "Sp4"])
def test_is_dot_invariant_matches_dot_action(name):
    d = BUILTINS[name]
    reflections = [w for w in weyl_group(d) if w.length == 1]
    dd = langlands_dual_data(d)
    for lam in enumerate_dominant(d, 2):
        poly = satake_image(dd, lam).poly
        for y in poly.support()[:3]:
            bumped = poly + GroupAlgebraElement.monomial(y, Laurent.q_power(1))
            for elem in (poly, bumped):
                expected = all(dot_act_poly(d, w, elem) == elem for w in reflections)
                assert SphericalFunction(elem, d).is_dot_invariant() == expected


@pytest.fixture
def fresh_images():
    """Empty the image cache around a test that builds corrupted images."""
    satake._satake_image_cached.cache_clear()
    yield
    satake._satake_image_cached.cache_clear()


def corrupt_extended(monkeypatch, extra):
    """Make the symmetrizer return its true result plus extra(dd, lam)."""
    real = satake.satake_image_extended

    def corrupted(dd, lam):
        return real(dd, lam) + extra(dd, lam)

    monkeypatch.setattr(satake, "satake_image_extended", corrupted)


def test_image_not_dot_invariant_raises(monkeypatch, fresh_images):
    # the image of 1 is e[1] + q^-1 e[-1]; change the coefficient at -1 only
    corrupt_extended(monkeypatch,
                     lambda dd, lam: GroupAlgebraElement.monomial(lift_exponent((-1,), 0)))
    with pytest.raises(RuntimeError, match="not dot-invariant"):
        satake_image(DD_PGL2, (1,))


def test_image_dominant_support_not_below_raises(monkeypatch, fresh_images):
    # adding the whole image of 2 keeps dot-invariance, but 2 is not <= 0
    corrupt_extended(monkeypatch,
                     lambda dd, lam: satake_image_extended(dd, (2,)))
    with pytest.raises(RuntimeError, match="not below"):
        satake_image(DD_PGL2, (0,))


@pytest.mark.parametrize("corruption", [
    lambda poly: poly.scale(2),
    lambda poly: poly + GroupAlgebraElement.monomial((2,)),
], ids=["top-coefficient-2", "point-above-nu"])
def test_peel_residual_nonzero_raises(monkeypatch, corruption):
    # S(1)^2 = S(2) + (q^-1 + q^-2) S(0): corrupt S(0) past its build checks
    real = satake.satake_image

    def image(dd, nu):
        found = real(dd, nu)
        if tuple(nu) != (0,):
            return found
        return SphericalFunction(corruption(found.poly), found.datum)

    monkeypatch.setattr(satake, "satake_image", image)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        structure_polynomials(DD_PGL2, (1,), (1,))
