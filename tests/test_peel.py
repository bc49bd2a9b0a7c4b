"""The chamber-only peel and the packed orbit walk against the
whole-product and tuple computations they replace, the Hecke relations the
orbit walk relies on, pinned images, the tripwires that make the
chamber-only remainder check as strong as the whole one, and the packed
keys and t-ints both run on."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from heckedual import satake
from heckedual.dualdata import langlands_dual_data
from heckedual.lattice import (
    GroupAlgebraElement,
    Laurent,
    dot,
    mat_apply,
    mat_inverse_unimodular,
    mat_transpose,
    vec_add,
    vec_sub,
)
from heckedual.rootdatum import (
    BUILTINS,
    TRIVIAL,
    RootDatum,
    cartan_matrix,
    dominant_below,
    is_dominant_coweight,
    pairings,
    positive_root_sum,
    positive_roots,
    require_valid,
    stabilizer_poincare,
    weyl_group,
)
from heckedual.satake import (
    HeckeExpansion,
    SphericalFunction,
    add_products_into,
    dot_act_poly,
    lift_exponent,
    pack,
    pack_slot,
    product_coefficients,
    repack,
    satake_image,
    satake_image_extended,
    structure_polynomials,
    t_laurent,
    unpack,
)

from conftest import (
    demazure_lusztig,
    enumerate_dominant,
    reference_image,
    reference_image_extended,
    weyl_matrices,
)

DD_PGL2 = langlands_dual_data(BUILTINS["PGL2"])
TORUS = require_valid(RootDatum(2, (), (), "torus"))


def random_t_laurent(rng, size=3, span=3):
    """A random polynomial in q^-1."""
    return Laurent({-rng.randint(0, span): rng.randint(-4, 4) for _ in range(size)})


def t_int(c, width=64):
    """The t-int of a polynomial in q^-1: the coefficient of q^-i in digit i,
    each digit width bits wide."""
    return sum(v << -k * width for k, v in c.items())


def t_int_laurent(n, width):
    """The polynomial in q^-1 of a t-int with digits width bits wide."""
    return Laurent({-i: c for i, c in enumerate(unpack(n, width))})


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


def same_coefficients(found, want):
    """Equal expansions whose coefficients also agree in hash, items and
    lowest exponent."""
    assert found == want
    for nu, c in found.coeffs.items():
        w = want.coeffs[nu]
        assert (hash(c), c.items(), c.min_exp()) == (hash(w), w.items(), w.min_exp()), nu


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_chamber_peel_matches_full_product(name, monkeypatch, fresh_images):
    # every pair is peeled with an empty memo of decoded coefficients, and
    # again after every other pair has filled the memo; one pass over all
    # pairs decodes each memo key once
    dd = langlands_dual_data(BUILTINS[name])
    doms = enumerate_dominant(dd.base, 2)
    pairs = [(lam, mu) for lam in doms for mu in doms]
    if name == "GL3":
        pairs.append(((5, 4, 3), (-1, -2, -3)))  # (2, 1, 0) x (1, 0, -1) moved by the centre
    want = [full_product_peel(dd, lam, mu) for lam, mu in pairs]
    real, decodes = satake.t_laurent, []

    def t_laurent(n, power, bound):
        decodes.append((n, -power))
        return real(n, power, bound)

    def peel(lam, mu):
        satake._expansions.clear()
        return structure_polynomials(dd, lam, mu)

    # the reference peels decoded every image the peel reads, so each call
    # seen from here on is a decode of the peel
    monkeypatch.setattr(satake, "t_laurent", t_laurent)
    cold, keys = [], []
    for (lam, mu), expansion in zip(pairs, want):
        satake._decoded.clear()
        decodes.clear()
        cold.append(peel(lam, mu))
        same_coefficients(cold[-1], expansion)
        keys.append(set(decodes))
        assert len(decodes) == len(keys[-1]), (lam, mu)
    satake._decoded.clear()
    decodes.clear()
    for lam, mu in pairs:
        peel(lam, mu)
    assert len(decodes) == len(set(decodes))
    assert set(decodes) == set().union(*keys) == set(satake._decoded)
    shared = Counter(key for own in keys for key in own)
    for (lam, mu), own, expansion in zip(pairs, keys, cold):
        alone = {key: satake._decoded.pop(key) for key in own if shared[key] == 1}
        same_coefficients(peel(lam, mu), expansion)
        satake._decoded.update(alone)


@pytest.mark.parametrize("order", ["small-first", "large-first"])
@pytest.mark.parametrize("name, pairs, wide, top, narrow", [
    ("PGL2", [((3,), (2,)), ((20,), (10,)), ((40,), (30,))], [(40,), (30,), (20,), (62,)],
     (70,), (3,)),
    ("PGL3", [((2, 1), (1, 0)), ((20, 0), (1, 0)), ((20, 0), (0, 12))], [(20, 0), (0, 12), (8, 0)],
     (20, 12), (2, 1)),
], ids=["PGL2", "PGL3"])
def test_peel_reads_images_at_a_wider_slot(name, pairs, wide, top, narrow, order, fresh_images):
    # the last product peels at a top with 2 <2 rho, top> >= 128, so at a
    # 16-bit slot, and reads images built at 8 bits there: PGL2's (40) x (30)
    # at 70, and PGL3's (20, 0) x (0, 12) at (20, 12), where both pairings of
    # each key move; the smaller products read some of the same images at 8
    # bits, before or after.  Images are named by their pairings.
    dd = langlands_dual_data(BUILTINS[name])
    if order == "large-first":
        pairs = pairs[::-1]
    found = [structure_polynomials(dd, lam, mu) for lam, mu in pairs]
    assert found == [full_product_peel(dd, lam, mu) for lam, mu in pairs]
    slots = {p: set(entry.views) for (_, p), entry in satake._images.items()}
    assert all(slots[p] == {8, 16} for p in wide), slots
    assert slots[top] == {16} and slots[narrow] == {8}


def sheared(d, k):
    """d with its coweights transported by y -> y M, M the identity minus
    2^k on the subdiagonal, and its roots by the inverse, alpha -> M^-1
    alpha, so every pairing is kept; and the map y -> y M on coweights."""
    m = tuple(tuple(1 if i == j else -(1 << k) if i == j + 1 else 0 for j in range(d.rank))
              for i in range(d.rank))
    f, mt = mat_inverse_unimodular(m), mat_transpose(m)
    moved = RootDatum(d.rank, [mat_apply(f, a) for a in d.simple_roots],
                      [mat_apply(mt, c) for c in d.simple_coroots], f"{d.name}-shear{k}")
    return moved, lambda y: mat_apply(mt, y)


@pytest.mark.parametrize("name", ["SL3", "Sp4", "GL3", "GL2"])
def test_expansions_are_kept_under_sheared_coweights(name, fresh_images):
    # the coordinates of the sheared images grow like 2^k and pass 2^63 for
    # the last k, but the peel keys terms by their pairings, which the shear
    # keeps, so every view of every image is at one byte; GL3 and GL2 also
    # shift by the centre
    d = BUILTINS[name]
    dd = langlands_dual_data(d)
    doms = enumerate_dominant(d, 2)
    want = [(lam, mu, structure_polynomials(dd, lam, mu).coeffs) for lam in doms for mu in doms]
    seen = sorted({nu for _, _, coeffs in want for nu in coeffs} | set(doms))
    for k in range(1, 65):
        moved, transport = sheared(d, k)
        dd_moved = langlands_dual_data(moved)
        to = {y: transport(y) for y in seen}
        for lam, mu, coeffs in want:
            found = structure_polynomials(dd_moved, to[lam], to[mu]).coeffs
            assert found == {to[nu]: c for nu, c in coeffs.items()}, (k, lam, mu)
        slots = {slot for (datum, _), entry in satake._images.items() if datum == dd_moved
                 for slot in entry.views}
        assert slots == {8}, k


@pytest.mark.parametrize("name", ["SL3", "Sp4", "GL3"])
def test_images_are_kept_under_sheared_coweights(name, monkeypatch, fresh_images):
    # the walk keys a term by its pairings, which the shear keeps, so its
    # slot for each class is the one at k = 1 while the coordinates of the
    # images grow like 2^k
    d = BUILTINS[name]
    doms = enumerate_dominant(d, 2)
    want = {lam: satake_image(langlands_dual_data(d), lam).poly.items() for lam in doms}
    real, slots = satake._walk, {}

    def walk(d, lam, p):
        keys, terms = real(d, lam, p)
        slots[d, p] = keys.slot
        return keys, terms

    monkeypatch.setattr(satake, "_walk", walk)
    first = None
    for k in range(1, 65):
        moved, transport = sheared(d, k)
        dd_moved = langlands_dual_data(moved)
        for lam in doms:
            found = satake_image(dd_moved, transport(lam)).poly
            assert found == GroupAlgebraElement(d.rank, {transport(y): c for y, c in want[lam]}), (k, lam)
        walked = {p: slot for (datum, p), slot in slots.items() if datum == moved}
        first = first or walked
        assert walked == first, k


def hall_littlewood_sides(dd, lam):
    """Both sides of S(lambda) * Delta * W_lambda(q^-1) = sum_w Delta/w(Delta)
    * w(e^(lambda,0) N), with Delta = prod (1 - e^-betavee) and N = prod
    (1 - q^-1 e^-betavee) over the positive extended coroots, and the
    closed form Delta/w(Delta) = (-1)^l(w) e^(sum of the w(betavee) that
    are negative).  Products only: no division and no Hecke operator."""
    ext = dd.ext
    coroots = positive_roots(ext)[1]
    one = GroupAlgebraElement.one(ext.rank)
    delta = one
    numerator = GroupAlgebraElement.monomial(lift_exponent(lam, 0))
    for betavee in coroots:
        inv = tuple(-x for x in betavee)
        delta = delta * (one - GroupAlgebraElement.monomial(inv))
        numerator = numerator * (one - GroupAlgebraElement.monomial(inv, Laurent.q_power(-1)))
    rhs = GroupAlgebraElement.zero(ext.rank)
    for w in weyl_group(ext):
        _, mat_y = weyl_matrices(ext, w)
        exponent = (0,) * ext.rank
        for betavee in coroots:
            moved = mat_apply(mat_y, betavee)
            if moved not in coroots:
                exponent = vec_add(exponent, moved)
        ratio = GroupAlgebraElement.monomial(exponent, (-1) ** len(w))
        rhs = rhs + numerator.apply_map(mat_y) * ratio
    # the Poincare polynomial with q -> q^-1
    normalizer = Laurent({-k: c for k, c in stabilizer_poincare(dd.base, lam).items()})
    return satake_image_extended(dd, lam) * delta * normalizer, rhs


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_image_satisfies_hall_littlewood_definition(name):
    dd = langlands_dual_data(BUILTINS[name])
    for lam in enumerate_dominant(dd.base, 3):
        lhs, rhs = hall_littlewood_sides(dd, lam)
        assert lhs == rhs, lam


def random_element(rng, rank):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        terms[v] = Laurent({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
    return GroupAlgebraElement(rank, terms)


BRAID_LENGTH = {0: 2, 1: 3, 2: 4, 3: 6}  # by a_ij * a_ji


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_demazure_lusztig_hecke_relations(name):
    ext = langlands_dual_data(BUILTINS[name]).ext
    ops = [lambda f, a=alpha, av=alphavee: demazure_lusztig(f, a, av)
           for alpha, alphavee in zip(ext.simple_roots, ext.simple_coroots)]
    cartan = cartan_matrix(ext)
    rng = random.Random(4242)
    qinv = Laurent.q_power(-1)
    for _ in range(10):
        f = random_element(rng, ext.rank)
        for t in ops:
            # quadratic relation (T - q^-1)(T + 1) = 0
            assert t(t(f)) == t(f) * (qinv - Laurent.one()) + f * qinv
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                left, right = f, f
                for step in range(BRAID_LENGTH[cartan[i][j] * cartan[j][i]]):
                    left = ops[(i, j)[step % 2]](left)
                    right = ops[(j, i)[step % 2]](right)
                assert left == right, (i, j)


# sha256 of the images below, recorded with the Weyl-group symmetrizer
# (sum over W, division by the Weyl denominator and by W_lambda(q^-1))
PINNED_IMAGES = "50e83918ec7558b4b2411b9d7eb87fd5a2bd6e06ec71914e00ad1113a7d13d59"


def test_images_pinned():
    digest = hashlib.sha256()
    for name in sorted(BUILTINS):
        dd = langlands_dual_data(BUILTINS[name])
        for lam in enumerate_dominant(dd.base, 4):
            digest.update(repr((name, lam, satake_image_extended(dd, lam).items(),
                                satake_image(dd, lam).poly.items())).encode())
    assert digest.hexdigest() == PINNED_IMAGES


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_images_lie_in_z_of_q_inverse_and_are_orbit_sums_at_q_one(name):
    # with t = q^-1, every coefficient of S(lambda) is a polynomial in t,
    # and so is every coefficient of its lift to the extended lattice,
    # which the peel's t-ints rest on; at q = 1 the image is the sum of e^y
    # over the orbit of lambda (Macdonald, Symmetric Functions and Hall
    # Polynomials, III: P_lambda(x; 1) = m_lambda); the orbit is taken by
    # the Weyl matrices, not by the walk
    d = BUILTINS[name]
    dd = langlands_dual_data(d)
    mats = [weyl_matrices(d, w)[1] for w in weyl_group(d)]
    for lam in enumerate_dominant(d, 4 if d.rank <= 2 else 3):
        poly = satake_image(dd, lam).poly
        assert all(k <= 0 for _, c in poly.items() for k, _ in c.items()), lam
        lifted = satake_image_extended(dd, lam)
        assert all(k <= 0 for _, c in lifted.items() for k, _ in c.items()), lam
        at_one = {y: c.evaluate(Fraction(1)) for y, c in poly.items()}
        orbit = {mat_apply(m, lam) for m in mats}
        assert {y: v for y, v in at_one.items() if v} == dict.fromkeys(orbit, 1), lam


@pytest.mark.parametrize("d", [*BUILTINS.values(), TRIVIAL, TORUS], ids=lambda d: d.name)
def test_images_match_the_tuple_walk(d, fresh_images):
    # the packed walk against the tuple walk, and the dominant terms the
    # build reports against those of the image
    dd = langlands_dual_data(d)
    for lam in enumerate_dominant(d, 6 if d.rank <= 2 else 4):
        extended = reference_image_extended(dd, lam)
        assert satake_image_extended(dd, lam) == extended, lam
        assert satake_image(dd, lam).poly == extended.specialize_delta(dd.delta_index), lam
        entry = satake._images[dd, pairings(d, lam)]
        (slot, (view, dominant)), = entry.views.items()
        assert (view, dict(dominant)) == lifted_view(dd, lam, entry.image.poly, slot), lam


@pytest.mark.parametrize("d", [*BUILTINS.values(), TRIVIAL, TORUS], ids=lambda d: d.name)
def test_walk_keys_are_peel_keys_with_a_lift_on_top(d):
    # a walk key is the peel key of its point plus the packed biases, at the
    # slot of the one slot table, and its value is the t-int of the point's
    # lift, 64 bits a digit at these heights, so the view holds it as is
    for lam in enumerate_dominant(d, 3):
        p = pairings(d, lam)
        keys, terms = satake._walk(d, lam, p)
        (slot, (view, _)), = satake._build(d, lam, p).views.items()
        assert keys.slot == slot == satake._peel_keys(d, lam)[0], lam
        assert keys.width == 64, lam
        assert {key - keys.dominant: t for key, t in terms.items()} == view, lam


@pytest.mark.parametrize("width", [64, 136])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_step_matches_demazure_lusztig(name, width):
    # one packed step on seeded random lifts, at points of the hull of the
    # orbit of 2 rho-vee, against the tuple operator on the extended lattice,
    # where the lift at y sits at delta-exponent -h, h = <rho, lambda - y>;
    # at 136 bits a digit the coefficients pass 2^64
    d = BUILTINS[name]
    dd = langlands_dual_data(d)
    lam = tuple(map(sum, zip((0,) * d.rank, *positive_roots(d)[1])))
    keys = satake._Keys(d, lam, pairings(d, lam), width)
    two_rho = positive_root_sum(d)
    hull = satake_image(dd, lam).poly.support()
    lifts = {y: lift_exponent(y, -dot(two_rho, vec_sub(lam, y)) // 2) for y in hull}
    keyed = {lifts[y]: keys.key(pairings(d, y)) for y in hull}
    points = {key: point for point, key in keyed.items()}
    size = 1 if width == 64 else 1 << 70
    rng = random.Random(41 + width)
    for i, (alpha, alphavee) in enumerate(zip(dd.ext.simple_roots, dd.ext.simple_coroots)):
        signs = set()
        for _ in range(12):
            sample = rng.sample(hull, rng.randint(1, min(5, len(hull))))
            elem = GroupAlgebraElement(dd.ext.rank, {
                lifts[y]: Laurent({-rng.randint(0, 3): rng.randint(-4, 4) * size + rng.randint(-4, 4)
                                   for _ in range(3)}) for y in sample})
            signs.update((dot(alpha, y) > 0) - (dot(alpha, y) < 0) for y, _ in elem.items())
            out = satake._step(keys, i, {keyed[y]: t_int(c, width) for y, c in elem.items()})
            assert all(out.values()), (name, i)
            assert ({points[key]: t_int_laurent(n, width) for key, n in out.items()}
                    == dict(demazure_lusztig(elem, alpha, alphavee).items())), (name, i, elem)
        assert signs == {-1, 0, 1}, (name, i)


def test_wide_walk_builds_the_image_of_a_64_bit_walk(monkeypatch, fresh_images):
    # GL5 at (3,1,0,-1,-3), written as CI writes gl9.json: the walk's digit
    # bound, 120 * 57^10, passes 2^63, so its digits are 72 bits wide and the
    # build repacks each lift to 64; the image's own digits are small, so a
    # walk held at 64 bits builds the same view, norms and image
    roots = [[(c == i) - (c == i + 1) for c in range(5)] for i in range(4)]
    d = require_valid(RootDatum(5, roots, roots, "GL5"))
    dd = langlands_dual_data(d)
    lam = (3, 1, 0, -1, -3)
    p = pairings(d, lam)
    assert satake._walk(d, lam, p)[0].width == 72
    wide = satake._build(d, lam, p)
    with monkeypatch.context() as m:
        m.setattr(satake, "_HALF", 1 << 1000)
        assert satake._walk(d, lam, p)[0].width == 64
        narrow = satake._build(d, lam, p)
    assert (wide.views, wide.norm, wide.peak) == (narrow.views, narrow.norm, narrow.peak)
    assert wide.image == narrow.image
    (slot, (view, dominant)), = wide.views.items()
    assert (view, dict(dominant)) == lifted_view(dd, lam, wide.image.poly, slot)


@pytest.mark.parametrize("name, lam, mu", [("PGL2", (40,), (30,)), ("Sp4", (2, 1), (1, 1))])
def test_products_decode_no_image(fresh_images, name, lam, mu):
    # the peel reads only the views, so no cached image holds its Laurents
    structure_polynomials(langlands_dual_data(BUILTINS[name]), lam, mu)
    assert satake._images and all(entry._image is None for entry in satake._images.values())


def test_image_read_wider_first_decodes_from_its_own_slot(fresh_images):
    # PGL2's (40) x (30) peels at two bytes and reads the images below it,
    # built at one byte, at two; each decodes later from its own slot
    structure_polynomials(DD_PGL2, (40,), (30,))
    wider = {entry.rep: entry for entry in satake._images.values() if len(entry.views) == 2}
    assert {(10,), (20,), (30,)} <= set(wider)
    decoded = {nu: satake_image(DD_PGL2, nu) for nu in wider}
    assert all(entry._image is decoded[nu] for nu, entry in wider.items())
    satake._images.clear()
    for nu, image in decoded.items():
        assert image == satake_image(DD_PGL2, nu), nu
        assert image.poly == reference_image(DD_PGL2, nu), nu


def test_image_decode_runs_under_the_digit_bound(fresh_images):
    # the decode reads each dominant t-int under the image's peak norm
    structure_polynomials(DD_PGL2, (1,), (1,))
    entry = satake._images[DD_PGL2, (1,)]
    entry.peak = 1 << 63
    with pytest.raises(RuntimeError, match="internal: coefficient bound .* half a 64-bit slot"):
        satake_image(DD_PGL2, (1,))


def dot_invariant_by_lookups(d, elem):
    """For every simple reflection s and every term c e^y, the coefficient
    at s y = y - <alpha, y> alphavee is q^-<alpha, y> c."""
    for alpha, alphavee in zip(d.simple_roots, d.simple_coroots):
        for y, c in elem.items():
            k = sum(a * x for a, x in zip(alpha, y))
            if elem.coefficient(tuple(x - k * b for x, b in zip(y, alphavee))) != c.shift(-k):
                return False
    return True


@pytest.mark.parametrize("name", ["PGL2", "GL3", "Sp4"])
def test_is_dot_invariant_matches_dot_action(name):
    d = BUILTINS[name]
    reflections = [w for w in weyl_group(d) if len(w) == 1]
    dd = langlands_dual_data(d)
    seen = set()
    for lam in enumerate_dominant(d, 2):
        image = satake_image(dd, lam)
        poly = image.poly
        for y in poly.support()[:3]:
            bumped = poly + GroupAlgebraElement.monomial(y, Laurent.q_power(1))
            for elem in (poly, bumped):
                expected = dot_invariant_by_lookups(d, elem)
                # an image is fixed by its dominant coefficients, so no image
                # holds a bumped element: write it where the filled orbits go
                sf = SphericalFunction(d, image.dominant)
                vars(sf)["poly"] = elem
                assert sf.is_dot_invariant() == expected
                assert all(dot_act_poly(d, w, elem) == elem for w in reflections) == expected
                seen.add(expected)
    assert seen == {True, False}


def corrupt_walk(monkeypatch, extra):
    """Make the walk return its true monomials plus extra(keys), past its
    unit-top check."""
    real = satake._walk

    def corrupted(d, lam, p):
        keys, terms = real(d, lam, p)
        for key, c in extra(keys).items():
            terms[key] = terms.get(key, 0) + c
        return keys, terms

    monkeypatch.setattr(satake, "_walk", corrupted)


def test_image_not_dot_invariant_raises(monkeypatch, fresh_images):
    # the image of 1 is e[1] + q^-1 e[-1], and both lifts are 1; add 1 to the
    # lift at -1 only, the coweight 1 - alphavee of pairing -1
    corrupt_walk(monkeypatch, lambda keys: {keys.key((-1,)): 1})
    with pytest.raises(RuntimeError, match="not dot-invariant"):
        satake_image(DD_PGL2, (1,))


def test_image_dominant_support_not_below_raises(monkeypatch, fresh_images):
    # the whole image of 2 keeps dot-invariance, but 2 is not <= 0; the slot
    # of 0 has room for the orbit of 2, where y has pairing y and its
    # coefficient c lifts to q^h c, h = <rho, 0 - y> = -y/2
    two = satake_image(DD_PGL2, (2,)).poly

    def walk(d, lam, p):
        keys = satake._Keys(d, lam, p, 64)
        terms = {keys.start: 1}
        for (y,), c in two.items():
            terms[keys.key((y,))] = t_int(c.shift(-y // 2))
        return keys, terms

    monkeypatch.setattr(satake, "_walk", walk)
    with pytest.raises(RuntimeError, match="not below"):
        satake_image(DD_PGL2, (0,))


def lifted_view(dd, rep, poly, slot):
    """The peel's view of poly as an image of rep: the lift q^h c of each
    coefficient c at y, h = <rho, rep - y>, as a t-int keyed by the pairings
    of y packed at slot, and the same at the dominant y only."""
    two_rho = positive_root_sum(dd.base)
    view, dominant = {}, {}
    for y, c in poly.items():
        lifted = c.shift(sum(a * (x - z) for a, x, z in zip(two_rho, rep, y)) // 2)
        key = pack(pairings(dd.base, y), slot)
        view[key] = t_int(lifted)
        if is_dominant_coweight(dd.base, y):
            dominant[key] = view[key]
    return view, dominant


def corrupt_view(dd, rep, corruption):
    """Make the peel's view of the cached image of rep that of
    corruption(S(rep)), past the image's build checks, at the slot it is
    read at, and the norms the peel bounds them by."""
    entry = satake._images[dd, pairings(dd.base, rep)]
    poly = corruption(entry.image.poly)
    (slot,) = entry.views
    view, dominant = lifted_view(dd, rep, poly, slot)
    entry.views = {slot: (view, tuple(dominant.items()))}
    norms = [sum(abs(x) for _, x in c.items()) for _, c in poly.items()]
    entry.norm, entry.peak = sum(norms), max(norms)


@pytest.mark.parametrize("corruption", [
    lambda poly: poly.scale(2),
    lambda poly: poly + GroupAlgebraElement.monomial((2,)),
], ids=["top-coefficient-2", "point-above-nu"])
def test_peel_residual_nonzero_raises(fresh_images, corruption):
    # S(1)^2 = S(2) + (q^-1 + q^-2) S(0): corrupt S(0) past its build checks,
    # in the view that the peel reads
    for lam in ((0,), (1,), (2,)):
        satake_image(DD_PGL2, lam)
    corrupt_view(DD_PGL2, (0,), corruption)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        structure_polynomials(DD_PGL2, (1,), (1,))


def test_peel_top_not_one_raises(fresh_images):
    # 2 S(1) * 2 S(1) = 4 S(2) + 4 (q^-1 + q^-2) S(0) peels to a zero
    # residual, so only the unit-top check sees it
    for lam in ((0,), (1,), (2,)):
        satake_image(DD_PGL2, lam)
    corrupt_view(DD_PGL2, (1,), lambda poly: poly.scale(2))
    with pytest.raises(RuntimeError, match="top coefficient is not 1"):
        structure_polynomials(DD_PGL2, (1,), (1,))


@pytest.mark.parametrize("rep, memo", [((1,), "cold"), ((0,), "cold"), ((1,), "warm"), ((0,), "warm")],
                         ids=["factor", "peeled", "factor-warm", "peeled-warm"])
def test_peel_bound_past_half_a_slot_raises(fresh_images, rep, memo):
    # S(1)^2 = S(2) + (q^-1 + q^-2) S(0), with S(1) or S(0) times 2^62 in
    # the view: the bound passes 2^63 at the start, or when q^-1 + q^-2 is
    # peeled at 0, and the peel stops before it reads a residual value
    # under it, which would find a nonzero residual or a top other than 1;
    # warm, the uncorrupted product was peeled first, so its coefficients
    # are in the memo of decodes
    for lam in ((0,), (1,), (2,)):
        satake_image(DD_PGL2, lam)
    if memo == "warm":
        structure_polynomials(DD_PGL2, (1,), (1,))
        assert satake._decoded
        satake._expansions.clear()
    corrupt_view(DD_PGL2, rep, lambda poly: poly.scale(1 << 62))
    with pytest.raises(RuntimeError, match="internal: coefficient bound .* half a 64-bit slot"):
        structure_polynomials(DD_PGL2, (1,), (1,))


def test_image_top_not_one_raises(monkeypatch, fresh_images):
    # a Demazure-Lusztig step that also hands e^1 back to the start
    real = satake._step

    def corrupted(keys, i, terms):
        out = real(keys, i, terms)
        out[keys.start] = out.get(keys.start, 0) + 1
        return out

    monkeypatch.setattr(satake, "_step", corrupted)
    with pytest.raises(RuntimeError, match="leading coefficient at \\(1,\\) is not 1"):
        satake_image(DD_PGL2, (1,))


class TestPackedInts:
    """The packed keys and t-ints of the walk and the peel, and the one
    reader of their digits."""

    def test_add_products_into_accumulates(self):
        rng = random.Random(29)
        for _ in range(20):
            a, b, c = (random_t_laurent(rng) for _ in range(3))
            acc = {0: t_int(c)}
            add_products_into(acc, t_int(a), [(0, t_int(b))])
            assert t_laurent(acc[0], 0, 1 << 20)[0] == c + a * b
        # packed keys in one-byte slots, (0, 3) and (-1, 1) + (1, 2) meeting
        # at one key, and an entry that cancels is kept, as zero
        acc = {}
        at = pack((0, 3), 8)
        add_products_into(acc, t_int(Laurent({-1: 1})), [(at, 2)])
        add_products_into(acc, t_int(Laurent({-1: -2})), [(pack((-1, 1), 8) + pack((1, 2), 8), 1)])
        assert list(acc) == [at] and acc[at] == 0
        zero, norm = t_laurent(acc[at], 0, 4)
        assert zero == Laurent.zero() and zero.items() == [] and norm == 0

    def test_add_products_into_cancels_a_lowest_digit(self):
        # 1 + q^-1 minus q^-1 leaves 1, and minus 1 leaves q^-1: the zero
        # digit the cancellation leaves must go, so each result decodes to
        # Laurent's one representation of what is left
        for minus, left in ((Laurent({-1: 1}), Laurent.one()), (Laurent.one(), Laurent({-1: 1}))):
            acc = {0: t_int(Laurent({0: 1, -1: 1}))}
            add_products_into(acc, -t_int(minus), [(0, 1)])
            found, norm = t_laurent(acc[0], 0, 3)
            assert found == left and hash(found) == hash(left) and norm == 1
            assert found.items() == left.items() and found.min_exp() == left.min_exp()

    def test_t_laurent_reads_back_every_digit(self):
        # three coefficients of norm up to just under half a slot, so most
        # digits borrow from the next, at a power of q that moves them; the
        # bound trips at half a slot before reading
        rng = random.Random(43)
        room = ((1 << 63) - 1) // 3
        for _ in range(50):
            c = Laurent({-k: rng.randint(-room, room) for k in rng.sample(range(6), 3)})
            power = rng.randint(-4, 4)
            found, norm = t_laurent(t_int(c), power, (1 << 63) - 1)
            assert found == c.shift(power) and norm == sum(abs(x) for _, x in c.items())
        assert t_laurent(0, 5, 0) == (Laurent.zero(), 0)
        with pytest.raises(RuntimeError, match="half a 64-bit slot"):
            t_laurent(1, 0, 1 << 63)

    def test_product_coefficients_at_points(self):
        # both factors far from 0, their terms up to the widest a one-byte
        # slot takes from their origins, on both sides, so the packed
        # differences borrow across slots; coefficients in q^-1, as t-ints
        rng = random.Random(31)
        width = 42  # 3 * 42 < 2^7
        slot = pack_slot(3 * width)
        assert slot == 8
        corners = ((width, -width), (-width, width))
        for _ in range(10):
            origins, factors = [], []
            for _ in range(2):
                o = tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(2))
                offsets = corners + tuple(tuple(rng.randint(-width, width) for _ in range(2))
                                          for _ in range(4))
                f = GroupAlgebraElement(2, {vec_add(o, r): random_t_laurent(rng) for r in offsets})
                assert max(abs(x - z) for y in f.support() for x, z in zip(y, o)) == width
                origins.append(o)
                factors.append(f)
            (oa, ob), (a, b) = origins, factors
            top = vec_add(oa, ob)
            full = a * b
            reached = {vec_add(y, z) for y in a.support() for z in b.support()}
            points = sorted(reached) + [
                vec_add(top, tuple(rng.randint(-2 * width, 2 * width) for _ in range(2)))
                for _ in range(100)]
            keys = [pack(vec_sub(v, top), slot) for v in points]
            views = [{pack(vec_sub(y, o), slot): t_int(c) for y, c in f.items()}
                     for f, o in ((a, oa), (b, ob))]
            found = product_coefficients(*views, keys)
            # points no pair of terms reaches are omitted
            assert set(found) == {k for v, k in zip(points, keys) if v in reached}
            for v, k in zip(points, keys):
                got = t_laurent(found[k], 0, 1 << 20)[0] if k in found else Laurent.zero()
                assert got == full.coefficient(v)

    def test_pack_is_linear_and_one_to_one_up_to_half_a_slot(self):
        rng = random.Random(37)
        for bound in (0, 1, 127, 128, 2 ** 63, 2 ** 64 + 5):
            slot = pack_slot(bound)
            # the least whole number of bytes with bound < 2^(slot-1)
            assert slot % 8 == 0 and 2 ** (slot - 9) <= max(bound, 1) < 2 ** (slot - 1)
            for _ in range(20):
                v, y = (tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(2))
                assert pack(vec_sub(v, y), slot) == pack(v, slot) - pack(y, slot)
                assert (pack(v, slot) == pack(y, slot)) == (v == y)
        # every vector of coordinates at most 127 has its own one-byte key,
        # and one coordinate of 128 already meets another vector's key
        keys = {pack(v, 8) for v in itertools.product(range(-127, 128), repeat=2)}
        assert len(keys) == 255 ** 2
        assert pack((128, -1), 8) == pack((-128, 0), 8)

    def test_repack_moves_every_coordinate_to_the_wider_slot(self):
        # coordinates up to just under half a slot, trailing zeros included,
        # so most digits borrow from the next
        rng = random.Random(47)
        for slot, wider in ((8, 8), (8, 16), (16, 72), (64, 128)):
            bound = (1 << (slot - 1)) - 1
            corners = [(bound, -bound, 0), (-bound, bound, bound), (0, 0, -bound), (0, 0, 0)]
            for v in corners + [tuple(rng.randint(-bound, bound) for _ in range(3))
                                for _ in range(30)]:
                assert repack(pack(v, slot), slot, wider) == pack(v, wider), (slot, wider, v)

    def test_unpack_reads_back_every_packed_vector(self):
        # coordinates from -(2^(s-1) - 1) to 2^(s-1) - 1, zeros and trailing
        # zeros included, so most digits borrow from the next; the digits
        # come back lowest first, up to the highest nonzero one
        rng = random.Random(53)
        for slot in (8, 16, 64):
            bound = (1 << (slot - 1)) - 1
            corners = [(), (0, 0), (bound, -bound, 0), (-bound, 0, bound, 0, 0), (0, -1), (-1,)]
            picks = (-bound, -1, 0, 1, bound)
            for v in corners + [tuple(rng.choice(picks) if rng.random() < 0.3
                                      else rng.randint(-bound, bound) for _ in range(rng.randint(1, 5)))
                                for _ in range(60)]:
                found = unpack(pack(v, slot), slot)
                want = list(v)
                while want and not want[-1]:
                    want.pop()
                assert found == want, (slot, v)

    def test_t_laurent_matches_a_reference_decoder(self):
        # the balanced base-2^64 digits read one at a time, highest power of
        # q first; digits of either sign, a zero lowest digit and n = 0
        def reference(n, power):
            digits = []
            while n:
                c = n & ((1 << 64) - 1)
                if c >= 1 << 63:
                    c -= 1 << 64
                n = (n - c) >> 64
                digits.append(c)
            while digits and not digits[0]:
                del digits[0]
                power -= 1
            digits.reverse()
            lo = power + 1 - len(digits) if digits else 0
            terms = {lo + i: c for i, c in enumerate(digits) if c}
            return Laurent(terms), sum(map(abs, digits))

        rng = random.Random(59)
        room = (1 << 63) - 1
        cases = [0, 1, -1, 1 << 64, -(1 << 128), (1 << 63) - 1, -(1 << 63) + 1]
        for _ in range(200):
            digits = [rng.choice((0, rng.randint(-room, room), rng.randint(-9, 9)))
                      for _ in range(rng.randint(1, 6))]
            cases.append(sum(c << 64 * i for i, c in enumerate(digits)))
        assert any(n and not n & ((1 << 64) - 1) for n in cases)
        for n in cases:
            for power in (-3, 0, 4):
                found, norm = t_laurent(n, power, room)
                want, want_norm = reference(n, power)
                assert (found, norm) == (want, want_norm), (n, power)
                assert found.items() == want.items() and hash(found) == hash(want)
                if found:
                    assert found.min_exp() == want.min_exp()
