"""Tests for based root data, Weyl groups and the dominance order."""

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from heckedual import rootdatum
from heckedual.cli import cmd_weyl, isomorphic_builtin
from heckedual.dualdata import langlands_dual_data
from heckedual.errors import CapExceededError, ValidationError
from heckedual.lattice import (
    Laurent,
    dot,
    mat_apply,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    reflect,
    solve_integer_linear,
)
from heckedual.rootdatum import (
    BUILTINS,
    RootDatum,
    TRIVIAL,
    datum_isomorphic,
    dominance_leq,
    dominant_below,
    dual_datum,
    is_dominant_coweight,
    positive_root_sum,
    positive_roots,
    stabilizer_poincare,
    validate_datum,
    weyl_group,
    weyl_order,
)

from conftest import (
    dominance_leq_by_fractions,
    dominant_below_by_box,
    enumerate_dominant,
    simple_reflection_x,
    simple_reflection_y,
    weyl_matrices,
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
F4 = simply_connected("F4", ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)))


PINNED_WEYL_WORDS = "53f9d8739c88efb41a5b470c713609379e244e5f7b5c8c8d60f3ec7d886b2aa2"


def type_a_cartan(k, affine=False):
    """The k x k Cartan matrix of type A_k, or of affine type A_(k-1)~."""
    def entry(i, j):
        if i == j:
            return 2
        gap = abs(i - j)
        return -1 if gap == 1 or (affine and gap == k - 1) else 0
    return tuple(tuple(entry(i, j) for j in range(k)) for i in range(k))


def gl_roots(n):
    """The simple roots e_i - e_(i+1) of GL_n, which are also its simple coroots."""
    return tuple(tuple(int(c == i) - int(c == i + 1) for c in range(n)) for i in range(n - 1))


def longest_element(d):
    return max(weyl_group(d), key=len)


def inversion_count(d, w):
    """Number of positive roots sent to negative roots; equals the length."""
    roots, _ = positive_roots(d)
    neg = {tuple(-x for x in r) for r in roots}
    mat_x, _ = weyl_matrices(d, w)
    return sum(1 for r in roots if mat_apply(mat_x, r) in neg)


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
        solution = solve_integer_linear(tuple(zip(*d.simple_roots)), root)
        assert solution is not None, root
        coords = solution[0]
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

    def test_rank_past_the_longest_tuple_rejected(self):
        # a tuple of that rank cannot be made, so no coweight of it can
        assert validate_datum(RootDatum(sys.maxsize, (), ())) == []
        assert validate_datum(RootDatum(sys.maxsize + 1, (), ())) == [
            f"rank {sys.maxsize + 1} exceeds the longest tuple, {sys.maxsize}"]

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
            data += [d, dual_datum(d), langlands_dual_data(d).ext]
        for d in data:
            assert positive_roots(d) == closure_positive_roots(d), d.name

    def test_reflection_below_height_one_is_a_tripwire(self, monkeypatch):
        # <alpha_0, alphavee_1> = 1 > 0: not a Cartan matrix, and s_0 alpha_1 =
        # alpha_1 - alpha_0 has height 0
        monkeypatch.setattr(rootdatum, "validate_datum", lambda d: [])
        bad = RootDatum(2, ((2, 1), (1, 2)), ((1, 0), (0, 1)))
        with pytest.raises(RuntimeError, match="of height 0"):
            rootdatum._facts.__wrapped__(bad)

    def test_root_cap_counts_all_roots(self, monkeypatch):
        gl3 = BUILTINS["GL3"]  # 3 positive roots, 6 roots
        monkeypatch.setattr(rootdatum, "_ROOT_CAP", 5)
        with pytest.raises(CapExceededError, match="safety cap"):
            rootdatum._facts.__wrapped__(gl3)
        monkeypatch.setattr(rootdatum, "_ROOT_CAP", 6)
        assert rootdatum._facts.__wrapped__(gl3) == rootdatum._facts(gl3)

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

    def test_order_from_exponents_matches_enumeration(self):
        a1xa1 = simply_connected("A1xA1", ((2, 0), (0, 2)))
        data = list(SIMPLY_CONNECTED) + [F4, a1xa1, TRIVIAL, RootDatum(2, (), (), "T2")]
        for d in BUILTINS.values():
            data += [d, langlands_dual_data(d).ext]
        for d in data:
            assert weyl_order(d) == len(weyl_group(d)), d.name
        assert (weyl_order(F4), weyl_order(SIMPLY_CONNECTED[4]), weyl_order(a1xa1)) == (1152, 192, 4)

    def test_order_of_a_large_datum_enumerates_nothing(self, monkeypatch):
        def refuse(d):
            raise AssertionError("Weyl group enumerated")

        monkeypatch.setattr(rootdatum, "_weyl_group_cached", refuse)
        gl21 = RootDatum(21, gl_roots(21), gl_roots(21), "GL21")
        assert weyl_order(gl21) == 51090942171709440000  # 21!

    def test_words_pinned(self):
        # sha256 of the words of W, in the breadth-first order that `weyl`
        # prints, recorded when each element was told apart by its matrices
        data = [TRIVIAL]
        for d in BUILTINS.values():
            data += [d, langlands_dual_data(d).ext]
        data += [RootDatum(n, gl_roots(n), gl_roots(n), f"GL{n}") for n in range(4, 8)]
        data += list(SIMPLY_CONNECTED) + [F4]
        digest = hashlib.sha256()
        for d in data:
            words = weyl_group(d)
            assert cmd_weyl(SimpleNamespace(max_weyl=len(words)), d)["words"] == list(map(list, words))
            digest.update(repr((d.name, words)).encode())
        assert digest.hexdigest() == PINNED_WEYL_WORDS

    def test_reflections_match_the_reference_matrices(self):
        # reflect against the matrices built entry by entry, on basis and
        # random vectors
        rng = random.Random(15)
        data = list(SIMPLY_CONNECTED) + [F4]
        for d in BUILTINS.values():
            data += [d, langlands_dual_data(d).ext]
        for d in data:
            refl_x = [simple_reflection_x(d, i) for i in range(d.semisimple_rank)]
            refl_y = [simple_reflection_y(d, i) for i in range(d.semisimple_rank)]
            vectors = list(mat_identity(d.rank))
            vectors += [tuple(rng.randint(-5, 5) for _ in range(d.rank)) for _ in range(10)]
            for i, (alpha, alphavee) in enumerate(zip(d.simple_roots, d.simple_coroots)):
                for v in vectors:
                    assert reflect(v, alphavee, alpha) == mat_apply(refl_x[i], v), (d.name, i, v)
                    assert reflect(v, alpha, alphavee) == mat_apply(refl_y[i], v), (d.name, i, v)

    def test_lengths_are_inversions(self):
        for name in ("PGL2", "GL2", "GL3", "Sp4", "SO5"):
            d = BUILTINS[name]
            for w in weyl_group(d):
                assert len(w) == inversion_count(d, w)

    def test_longest_element_length(self):
        for d in BUILTINS.values():
            roots, _ = positive_roots(d)
            assert len(longest_element(d)) == len(roots)

    def test_root_set_stable(self):
        for name in ("GL3", "Sp4"):
            d = BUILTINS[name]
            roots, _ = positive_roots(d)
            full = set(roots) | {tuple(-x for x in r) for r in roots}
            for w in weyl_group(d):
                mat_x, _ = weyl_matrices(d, w)
                assert {mat_apply(mat_x, r) for r in full} == full

    def test_contragredient_pairing(self):
        rng = random.Random(1)
        for name in ("GL2", "Sp4"):
            d = BUILTINS[name]
            for w in weyl_group(d):
                mat_x, mat_y = weyl_matrices(d, w)
                for _ in range(5):
                    x = tuple(rng.randint(-3, 3) for _ in range(d.rank))
                    y = tuple(rng.randint(-3, 3) for _ in range(d.rank))
                    assert dot(mat_apply(mat_x, x), mat_apply(mat_y, y)) == dot(x, y)


def orbit_walk_cases():
    """(datum, dominant coweight) for every builtin, its extension, and
    the simply connected data of types G2, A3, B3, C3, D4 and F4, at
    every dominant coweight of height <= 3."""
    data = [d for b in BUILTINS.values() for d in (b, langlands_dual_data(b).ext)]
    data += list(SIMPLY_CONNECTED) + [F4]
    return [(d, v) for d in data for v in enumerate_dominant(d, 3)]


class TestOrbitWalk:
    def test_every_step_goes_down(self):
        # breadth first from a dominant start: a depth-first walk takes
        # upward steps, <alpha_i, mu> < 0, to points it has not yet found
        steps = 0
        for d, v in orbit_walk_cases():
            found = {v}
            for mu, i, nu in rootdatum.orbit_walk(d, v):
                assert mu in found and nu not in found, (d.name, v, mu, nu)
                assert nu == reflect(mu, d.simple_roots[i], d.simple_coroots[i])
                assert dot(d.simple_roots[i], mu) > 0, (d.name, v, mu, i)
                found.add(nu)
                steps += 1
        assert steps == 4002

    def test_orbit_size_is_the_index_of_the_stabilizer(self):
        # |W v| = |W| / |W_v|, with |W_v| its Poincare polynomial at t = 1
        cases = orbit_walk_cases()
        for d, v in cases:
            points = 1 + sum(1 for _ in rootdatum.orbit_walk(d, v))
            assert points * stabilizer_poincare(d, v).evaluate(Fraction(1)) == weyl_order(d), \
                (d.name, v)
        assert len(cases) == 1346


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

    def test_matches_the_rational_reference(self):
        # every pair with coordinates in [-1, 1], on every builtin and
        # extension of rank <= 3, the trivial datum and a rank-2 torus
        data = [d for b in BUILTINS.values() for d in (b, langlands_dual_data(b).ext)
                if d.rank <= 3] + [TRIVIAL, RootDatum(2, (), (), "T2")]
        count = below = 0
        for d in data:
            box = list(itertools.product((-1, 0, 1), repeat=d.rank))
            for nu, lam in itertools.product(box, repeat=2):
                leq = dominance_leq(d, nu, lam)
                assert leq == dominance_leq_by_fractions(d, nu, lam), (d.name, nu, lam)
                count += 1
                below += leq
        assert count == 4959 + 1 + 81
        assert below == 500

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

    def test_dominant_below_reads_any_sequence(self):
        d = BUILTINS["Sp4"]
        assert dominant_below(d, [3, 1]) == dominant_below(d, (3, 1))
        assert dominant_below(BUILTINS["PGL2"], [2]) == ((2,), (0,))

    def test_dominant_below_refuses_a_boolean_after_a_cached_call(self):
        # (True,) == (1,), so a cache keyed by the argument as given would
        # return the answer for (1,)
        assert dominant_below(BUILTINS["PGL2"], (1,)) == ((1,),)
        with pytest.raises(ValidationError, match="^expected an integer, got true$"):
            dominant_below(BUILTINS["PGL2"], (True,))

    def test_dominant_below_matches_the_box(self):
        # the walk down the positive coroots against the box of subtraction
        # coefficients: every builtin at height <= 4, every extension and
        # the simply connected data and their duals at height <= 2 (F4's
        # dual at height <= 1: the box alone takes seconds at 2)
        cases = [(d, 4) for d in BUILTINS.values()]
        cases += [(langlands_dual_data(d).ext, 2) for d in BUILTINS.values()]
        for d in SIMPLY_CONNECTED + (F4,):
            cases += [(d, 2), (dual_datum(d), 1 if d is F4 else 2)]
        count = 0
        for d, height in cases:
            for lam in enumerate_dominant(d, height):
                assert dominant_below(d, lam) == dominant_below_by_box(d, lam), (d.name, lam)
                count += 1
        assert count == 906


class TestStabilizer:
    def test_regular_is_trivial(self):
        assert stabilizer_poincare(BUILTINS["PGL2"], (1,)) == Laurent.one()

    def test_zero_pgl2(self):
        assert stabilizer_poincare(BUILTINS["PGL2"], (0,)) == Laurent({0: 1, 1: 1})

    def test_zero_gl3(self):
        # (1+t)(1+t+t^2) = 1 + 2t + 2t^2 + t^3
        expected = Laurent({0: 1, 1: 2, 2: 2, 3: 1})
        assert stabilizer_poincare(BUILTINS["GL3"], (0, 0, 0)) == expected

    def test_exponents_match_enumeration(self):
        def enumerated(d, lam):
            out = Laurent.zero()
            for w in weyl_group(d):
                if mat_apply(weyl_matrices(d, w)[1], lam) == lam:
                    out = out + Laurent.q_power(len(w))
            return out

        cases = [(d, (0,) * d.rank) for d in (SIMPLY_CONNECTED[0], F4)]
        for d in BUILTINS.values():
            for datum in (d, langlands_dual_data(d).ext):
                cases += [(datum, lam) for lam in itertools.product(range(-2, 3), repeat=datum.rank)
                          if is_dominant_coweight(datum, lam)]
        for d, lam in cases:
            assert stabilizer_poincare(d, lam) == enumerated(d, lam), (d.name, lam)
        assert len(cases) == 2 + 82 + 410  # G2 and F4, the builtins, their extensions

    def test_requires_dominant(self):
        # the stabilizer of (1,-1) is conjugate to a parabolic subgroup, but its
        # lengths give t^3 + 1, which is no product over exponents
        with pytest.raises(ValidationError, match=r"^coweight \(1, -1\) is not dominant$"):
            stabilizer_poincare(BUILTINS["SL3"], (1, -1))


class TestIsomorphism:
    def test_self_isomorphism_is_identity(self):
        for name in ("SL2", "GL2", "GL3", "Sp4"):
            d = BUILTINS[name]
            iso = datum_isomorphic(d, d)
            assert iso == tuple(tuple(1 if i == j else 0 for j in range(d.rank))
                                for i in range(d.rank))

    def test_torus_self_isomorphism_is_identity(self):
        for rank in (0, 1, 2, 3):
            torus = RootDatum(rank, (), (), f"T{rank}")
            assert datum_isomorphic(torus, torus) == tuple(
                tuple(int(r == c) for c in range(rank)) for r in range(rank))

    def test_sheared_gl2_is_found(self):
        gl2 = BUILTINS["GL2"]
        count = 0
        for s in [s for s in range(-29, 30) if s]:
            for shear in (((1, s), (0, 1)), ((1, 0), (s, 1))):
                # transport roots by the shear and coroots by its inverse transpose
                dual = tuple(zip(*mat_inverse_unimodular(shear)))
                d = RootDatum(2, (mat_apply(shear, gl2.simple_roots[0]),),
                              (mat_apply(dual, gl2.simple_coroots[0]),), f"GL2^{shear}")
                name, iso = isomorphic_builtin(d)
                assert name == "GL2" and abs(mat_det(iso)) == 1, shear
                assert mat_apply(iso, gl2.simple_roots[0]) == d.simple_roots[0]
                assert mat_apply(tuple(zip(*iso)), d.simple_coroots[0]) == gl2.simple_coroots[0]
                count += 1
        assert count == 116

    def test_sl2_times_gm_is_not_gl2(self):
        sl2_gm = RootDatum(2, ((2, 0),), ((1, 0),), "SL2xGm")
        assert datum_isomorphic(sl2_gm, BUILTINS["GL2"]) is None

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
