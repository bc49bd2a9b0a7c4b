"""Tests for based root data, Weyl groups and the dominance order."""

import itertools
import random

import pytest

from heckedual import rootdatum
from heckedual.dualdata import extend_datum
from heckedual.errors import CapExceededError, ValidationError
from heckedual.lattice import Laurent, mat_apply, mat_det, mat_inverse_unimodular, dot, solve_rational
from heckedual.rootdatum import (
    BUILTINS,
    RootDatum,
    TRIVIAL,
    datum_isomorphic,
    dominance_leq,
    dominant_below,
    dual_datum,
    inversion_count,
    is_dominant_coweight,
    longest_element,
    positive_root_sum,
    positive_roots,
    simple_reflection_x,
    simple_reflection_y,
    stabilizer_poincare,
    validate_datum,
    weyl_group,
    weyl_order,
)


def simply_connected(name, cartan):
    """The datum with coroots the standard basis and alpha_j = sum_i C[i][j] e_i."""
    k = len(cartan)
    return RootDatum(k, tuple(tuple(cartan[i][j] for i in range(k)) for j in range(k)),
                     tuple(tuple(int(i == j) for i in range(k)) for j in range(k)), name)


SIMPLY_CONNECTED = (
    simply_connected("G2", ((2, -1), (-3, 2))),
    simply_connected("A3", ((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
    simply_connected("B3", ((2, -1, 0), (-1, 2, -2), (0, -1, 2))),
    simply_connected("C3", ((2, -1, 0), (-1, 2, -1), (0, -2, 2))),
    simply_connected("D4", ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))),
)


def type_a_cartan(k, affine=False):
    """The k x k Cartan matrix of type A_k, or of affine type A_(k-1)~."""
    def entry(i, j):
        if i == j:
            return 2
        gap = abs(i - j)
        return -1 if gap == 1 or (affine and gap == k - 1) else 0
    return tuple(tuple(entry(i, j) for j in range(k)) for i in range(k))


def closure_positive_roots(d):
    """Positive roots the long way, to check positive_roots against: close the
    simple roots under every simple reflection, negative roots included, and
    keep the roots whose coordinates in the simple roots are all >= 0."""
    refl_x = [simple_reflection_x(d, i) for i in range(d.semisimple_rank)]
    refl_y = [simple_reflection_y(d, i) for i in range(d.semisimple_rank)]
    seen = dict(zip(d.simple_roots, d.simple_coroots))
    frontier = list(seen.items())
    while frontier:
        root, coroot = frontier.pop()
        for sx, sy in zip(refl_x, refl_y):
            image = mat_apply(sx, root)
            if image not in seen:
                seen[image] = mat_apply(sy, coroot)
                frontier.append((image, seen[image]))
    positive = []
    for root, coroot in seen.items():
        coords = solve_rational(d.simple_roots, root)
        assert all(x >= 0 for x in coords) or all(x <= 0 for x in coords), root
        if all(x >= 0 for x in coords):
            positive.append((sum(coords), root, coroot))
    positive.sort(key=lambda item: item[:2])
    return tuple(r for _, r, _ in positive), tuple(c for _, _, c in positive)


class TestValidation:
    def test_builtins_are_valid(self):
        for name, d in BUILTINS.items():
            assert validate_datum(d) == [], name
        assert validate_datum(TRIVIAL) == []

    def test_pgl2_valid(self):
        assert validate_datum(RootDatum(1, ((1,),), ((2,),))) == []

    def test_pairing_one_rejected(self):
        issues = validate_datum(RootDatum(1, ((1,),), ((1,),)))
        assert any("= 1 != 2" in s for s in issues)

    def test_pairing_three_rejected(self):
        issues = validate_datum(RootDatum(1, ((1,),), ((3,),)))
        assert issues

    def test_affine_cartan_rejected(self):
        # A1 affine: pairing matrix [[2,-2],[-2,2]] is not finite type
        d = RootDatum(2, ((2, -2), (-2, 2)), ((1, -1), (-1, 1)))
        issues = validate_datum(d)
        assert issues

    def test_dependent_roots_rejected(self):
        d = RootDatum(2, ((1, -1), (2, -2)), ((1, -1), (1, -1)))
        issues = validate_datum(d)
        assert issues

    def test_finite_type_takes_k_determinants(self, monkeypatch):
        sizes = []

        def counting_det(m):
            sizes.append(len(m))
            if len(sizes) > 1000:
                raise AssertionError("more than 1000 determinants")
            return mat_det(m)

        monkeypatch.setattr(rootdatum, "mat_det", counting_det)
        assert rootdatum._is_finite_type_cartan(type_a_cartan(20))
        assert sizes == list(range(1, 21))
        sizes.clear()
        # affine A19~: the leading minors 2, 3, ..., 20, then 0
        assert not rootdatum._is_finite_type_cartan(type_a_cartan(20, affine=True))
        assert sizes == list(range(1, 21))


class TestDuality:
    def test_dual_sl2_is_pgl2(self):
        assert dual_datum(BUILTINS["SL2"]) == BUILTINS["PGL2"]

    def test_involution_on_builtins(self):
        for d in BUILTINS.values():
            assert dual_datum(dual_datum(d)) == d

    def test_gl2_self_dual(self):
        assert dual_datum(BUILTINS["GL2"]) == BUILTINS["GL2"]

    def test_dual_of_valid_is_valid(self):
        for d in BUILTINS.values():
            assert validate_datum(dual_datum(d)) == []


class TestRoots:
    def test_pgl2_positives(self):
        roots, coroots = positive_roots(BUILTINS["PGL2"])
        assert roots == ((1,),)
        assert coroots == ((2,),)

    def test_gl3_positives(self):
        roots, _ = positive_roots(BUILTINS["GL3"])
        assert len(roots) == 3
        assert (1, 0, -1) in roots

    def test_sp4_positives(self):
        roots, coroots = positive_roots(BUILTINS["Sp4"])
        assert set(roots) == {(1, -1), (0, 2), (1, 1), (2, 0)}
        assert len(coroots) == 4

    def test_coroot_matching(self):
        # the coroot paired with a root beta satisfies <beta, betavee> = 2
        for d in BUILTINS.values():
            roots, coroots = positive_roots(d)
            for beta, betavee in zip(roots, coroots):
                assert dot(beta, betavee) == 2

    def test_upward_reflection_matches_closure(self):
        data = list(SIMPLY_CONNECTED)
        for d in BUILTINS.values():
            data += [d, dual_datum(d), extend_datum(d).ext]
        for d in data:
            assert positive_roots(d) == closure_positive_roots(d), d.name

    def test_reflection_below_height_one_is_a_tripwire(self, monkeypatch):
        # <alpha_0, alphavee_1> = 1 > 0: not a Cartan matrix, and s_0 alpha_1 =
        # alpha_1 - alpha_0 has height 0
        monkeypatch.setattr(rootdatum, "require_valid", lambda d: d)
        bad = RootDatum(2, ((2, 1), (1, 2)), ((1, 0), (0, 1)))
        with pytest.raises(RuntimeError, match="of height 0"):
            positive_roots.__wrapped__(bad)

    def test_root_cap_counts_all_roots(self, monkeypatch):
        gl3 = BUILTINS["GL3"]  # 3 positive roots, 6 roots
        monkeypatch.setattr(rootdatum, "_ROOT_CAP", 5)
        with pytest.raises(CapExceededError, match="safety cap"):
            positive_roots.__wrapped__(gl3)
        monkeypatch.setattr(rootdatum, "_ROOT_CAP", 6)
        assert positive_roots.__wrapped__(gl3) == positive_roots(gl3)

    def test_root_sums(self):
        assert positive_root_sum(BUILTINS["PGL2"]) == (1,)
        assert positive_root_sum(BUILTINS["SL2"]) == (2,)
        assert positive_root_sum(BUILTINS["Sp4"]) == (4, 2)
        assert positive_root_sum(BUILTINS["SO5"]) == (3, 1)


class TestWeylGroup:
    def test_orders(self):
        assert weyl_order(BUILTINS["PGL2"]) == 2
        assert weyl_order(BUILTINS["GL3"]) == 6
        assert weyl_order(BUILTINS["Sp4"]) == 8

    def test_lengths_are_inversions(self):
        for name in ("PGL2", "GL2", "GL3", "Sp4", "SO5"):
            d = BUILTINS[name]
            for w in weyl_group(d):
                assert w.length == inversion_count(d, w)

    def test_longest_element_length(self):
        for d in BUILTINS.values():
            roots, _ = positive_roots(d)
            assert longest_element(d).length == len(roots)

    def test_root_set_stable(self):
        for name in ("GL3", "Sp4"):
            d = BUILTINS[name]
            roots, _ = positive_roots(d)
            full = set(roots) | {tuple(-x for x in r) for r in roots}
            for w in weyl_group(d):
                assert {mat_apply(w.mat_x, r) for r in full} == full

    def test_contragredient_pairing(self):
        rng = random.Random(1)
        for name in ("GL2", "Sp4"):
            d = BUILTINS[name]
            for w in weyl_group(d):
                for _ in range(5):
                    x = tuple(rng.randint(-3, 3) for _ in range(d.rank))
                    y = tuple(rng.randint(-3, 3) for _ in range(d.rank))
                    assert dot(mat_apply(w.mat_x, x), mat_apply(w.mat_y, y)) == dot(x, y)


class TestDominance:
    def test_reflexive(self):
        assert dominance_leq(BUILTINS["PGL2"], (3,), (3,))

    def test_pgl2_examples(self):
        d = BUILTINS["PGL2"]
        assert dominance_leq(d, (0,), (2,))
        assert not dominance_leq(d, (1,), (2,))

    def test_partial_order_random(self):
        d = BUILTINS["Sp4"]
        rng = random.Random(5)
        doms = [v for v in itertools.product(range(-1, 4), repeat=2)
                if is_dominant_coweight(d, v)]
        for _ in range(60):
            a, b, c = rng.choice(doms), rng.choice(doms), rng.choice(doms)
            if dominance_leq(d, a, b) and dominance_leq(d, b, a):
                assert a == b
            if dominance_leq(d, a, b) and dominance_leq(d, b, c):
                assert dominance_leq(d, a, c)

    def test_dominant_below_pgl2(self):
        d = BUILTINS["PGL2"]
        assert dominant_below(d, (2,)) == ((2,), (0,))
        assert dominant_below(d, (1,)) == ((1,),)

    def test_dominant_below_zero(self):
        for d in BUILTINS.values():
            zero = (0,) * d.rank
            assert dominant_below(d, zero) == (zero,)

    def test_dominant_below_requires_dominant(self):
        with pytest.raises(ValidationError):
            dominant_below(BUILTINS["PGL2"], (-1,))

    def test_dominant_below_closed_under_order(self):
        d = BUILTINS["Sp4"]
        lam = (3, 1)
        below = dominant_below(d, lam)
        for nu in below:
            assert dominance_leq(d, nu, lam)
        # anything dominant and <= lam in a box shows up
        for v in itertools.product(range(-4, 5), repeat=2):
            if is_dominant_coweight(d, v) and dominance_leq(d, v, lam):
                assert v in below


class TestStabilizer:
    def test_regular_is_trivial(self):
        assert stabilizer_poincare(BUILTINS["PGL2"], (1,)) == Laurent.one()

    def test_zero_pgl2(self):
        assert stabilizer_poincare(BUILTINS["PGL2"], (0,)) == Laurent({0: 1, 1: 1})

    def test_zero_gl3(self):
        # (1+t)(1+t+t^2) = 1 + 2t + 2t^2 + t^3
        expected = Laurent({0: 1, 1: 2, 2: 2, 3: 1})
        assert stabilizer_poincare(BUILTINS["GL3"], (0, 0, 0)) == expected


class TestIsomorphism:
    def test_self_isomorphism_is_identity(self):
        for name in ("SL2", "GL2", "GL3", "Sp4"):
            d = BUILTINS[name]
            iso = datum_isomorphic(d, d)
            assert iso == tuple(tuple(1 if i == j else 0 for j in range(d.rank))
                                for i in range(d.rank))

    def test_sl2_pgl2_not_isomorphic(self):
        assert datum_isomorphic(BUILTINS["SL2"], BUILTINS["PGL2"]) is None

    def test_sp4_so5_not_isomorphic(self):
        assert datum_isomorphic(BUILTINS["Sp4"], BUILTINS["SO5"]) is None

    def test_iso_respects_structure(self):
        d1 = BUILTINS["GL3"]
        # permuted presentation of GL3: conjugate by a coordinate flip
        flip = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        roots = tuple(mat_apply(flip, r) for r in d1.simple_roots)
        coroots = tuple(mat_apply(flip, c) for c in d1.simple_coroots)
        d2 = RootDatum(3, roots, coroots, "GL3-flipped")
        iso = datum_isomorphic(d1, d2)
        assert iso is not None
        assert abs(mat_det(iso)) == 1
        inv = mat_inverse_unimodular(iso)
        mapped = {mat_apply(iso, r) for r in d2.simple_roots}
        assert mapped == set(d1.simple_roots)
        assert {mat_apply(inv, r) for r in d1.simple_roots} == set(d2.simple_roots)
