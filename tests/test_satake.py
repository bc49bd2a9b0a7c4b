"""Tests for the dot action, spherical images and the tree oracle."""

import random
from fractions import Fraction

import pytest

from heckedual.dualdata import langlands_dual_data
from heckedual.errors import CapExceededError, ValidationError
from heckedual.lattice import GroupAlgebraElement, Laurent, dot, mat_mul
from heckedual.rootdatum import BUILTINS, weyl_group
from heckedual.satake import (
    UnramifiedCharacter,
    compare_rank1_oracle,
    dot_act,
    dot_act_poly,
    dot_act_word,
    enumerate_dominant,
    lift_exponent,
    satake_image,
    satake_image_extended,
    structure_polynomials,
    tree_structure_constants,
)

PGL2 = BUILTINS["PGL2"]
DD_PGL2 = langlands_dual_data(PGL2)


def random_character(rng, d):
    values = tuple((Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-2, 2))
                   for _ in range(d.rank))
    return UnramifiedCharacter(d, values)


class TestDotAction:
    def test_identity(self):
        chi = random_character(random.Random(0), PGL2)
        w_id = weyl_group(PGL2)[0]
        assert dot_act(PGL2, w_id, chi) == chi

    def test_pgl2_reflection(self):
        # the value s at the coroot goes to s^-1 q^2
        chi = UnramifiedCharacter(PGL2, ((Fraction(5, 3), 0),))
        assert chi.value_at((2,)) == (Fraction(25, 9), 0)
        refl = weyl_group(PGL2)[1]
        image = dot_act(PGL2, refl, chi)
        assert image.value_at((2,)) == (Fraction(9, 25), 2)

    def test_involution(self):
        rng = random.Random(1)
        for name in ("PGL2", "SL2", "GL2"):
            d = BUILTINS[name]
            refls = [w for w in weyl_group(d) if w.length == 1]
            for _ in range(5):
                chi = random_character(rng, d)
                for w in refls:
                    assert dot_act(d, w, dot_act(d, w, chi)) == chi

    def test_group_action(self):
        rng = random.Random(2)
        for name in ("GL3", "Sp4"):
            d = BUILTINS[name]
            elements = weyl_group(d)
            by_matrix = {w.mat_y: w for w in elements}
            for _ in range(10):
                w1 = rng.choice(elements)
                w2 = rng.choice(elements)
                chi = random_character(rng, d)
                lhs = dot_act(d, by_matrix[mat_mul(w1.mat_y, w2.mat_y)], chi)
                rhs = dot_act(d, w1, dot_act(d, w2, chi))
                assert lhs == rhs

    def test_word_independence(self):
        # s1 s2 s1 = s2 s1 s2 in the rank-two symmetric group
        d = BUILTINS["GL3"]
        rng = random.Random(3)
        for _ in range(5):
            chi = random_character(rng, d)
            assert dot_act_word(d, (0, 1, 0), chi) == dot_act_word(d, (1, 0, 1), chi)


class TestUnramifiedCharacter:
    def test_wrong_number_of_values(self):
        with pytest.raises(ValidationError, match="one value per coweight"):
            UnramifiedCharacter(PGL2, ())
        with pytest.raises(ValidationError, match="one value per coweight"):
            UnramifiedCharacter(BUILTINS["GL2"], ((Fraction(1), 0),))

    def test_zero_value(self):
        with pytest.raises(ValidationError, match="nonzero"):
            UnramifiedCharacter(PGL2, ((Fraction(0), 3),))
        with pytest.raises(ValidationError, match="nonzero"):
            UnramifiedCharacter(BUILTINS["GL2"], ((Fraction(2), 1), (Fraction(0), 0)))


class TestLifting:
    def test_lift_and_specialize_round_trip(self):
        y = (3, -1)
        lifted = lift_exponent(y, 0)
        elem = GroupAlgebraElement.monomial(lifted)
        assert elem.specialize_delta(2) == GroupAlgebraElement.monomial(y)

    def test_pgl2_reflection_of_lift(self):
        dd = DD_PGL2
        w = weyl_group(dd.ext)[1]
        lifted = GroupAlgebraElement.monomial(lift_exponent((1,), 0))
        moved = lifted.apply_map(w.mat_y)
        assert moved == GroupAlgebraElement.monomial((-1, -1))
        spec = moved.specialize_delta(dd.delta_index)
        assert spec == GroupAlgebraElement.monomial((-1,), Laurent.q_power(-1))

    def test_intertwining_random(self):
        rng = random.Random(4)
        for name in ("PGL2", "GL2", "GL3", "Sp4"):
            d = BUILTINS[name]
            dd = langlands_dual_data(d)
            ext_elements = weyl_group(dd.ext)
            base_elements = weyl_group(d)
            for w_ext, w_base in zip(ext_elements, base_elements):
                assert w_ext.word == w_base.word
                for _ in range(8):
                    y = tuple(rng.randint(-3, 3) for _ in range(d.rank))
                    lifted = GroupAlgebraElement.monomial(lift_exponent(y, 0))
                    upstairs = lifted.apply_map(w_ext.mat_y).specialize_delta(dd.delta_index)
                    downstairs = dot_act_poly(d, w_base, GroupAlgebraElement.monomial(y))
                    assert upstairs == downstairs


class TestSatakeImage:
    def test_zero_coweight(self):
        for name in ("PGL2", "GL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            image = satake_image(dd, (0,) * dd.base.rank)
            assert image.poly == GroupAlgebraElement.one(dd.base.rank)

    def test_pgl2_fundamental(self):
        image = satake_image(DD_PGL2, (1,))
        expect = (GroupAlgebraElement.monomial((1,))
                  + GroupAlgebraElement.monomial((-1,), Laurent.q_power(-1)))
        assert image.poly == expect

    def test_pgl2_twice_fundamental(self):
        image = satake_image(DD_PGL2, (2,))
        expect = (GroupAlgebraElement.monomial((2,))
                  + GroupAlgebraElement.monomial((0,), Laurent({-1: 1, -2: -1}))
                  + GroupAlgebraElement.monomial((-2,), Laurent.q_power(-2)))
        assert image.poly == expect

    def test_pgl2_height_three(self):
        # hand value: e^3 + (q^-1 - q^-2) e^1 + (q^-2 - q^-3) e^-1 + q^-3 e^-3
        image = satake_image(DD_PGL2, (3,))
        expect = (GroupAlgebraElement.monomial((3,))
                  + GroupAlgebraElement.monomial((1,), Laurent({-1: 1, -2: -1}))
                  + GroupAlgebraElement.monomial((-1,), Laurent({-2: 1, -3: -1}))
                  + GroupAlgebraElement.monomial((-3,), Laurent.q_power(-3)))
        assert image.poly == expect

    def test_rejects_non_dominant(self):
        with pytest.raises(ValidationError):
            satake_image(DD_PGL2, (-1,))

    def test_dot_invariance(self):
        for name in ("PGL2", "GL2", "GL3", "Sp4", "SO5"):
            dd = langlands_dual_data(BUILTINS[name])
            for lam in enumerate_dominant(dd.base, 2):
                assert satake_image(dd, lam).is_dot_invariant()

    def test_integer_delta_exponents(self):
        for name in ("PGL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            for lam in enumerate_dominant(dd.base, 3):
                extended = satake_image_extended(dd, lam)
                for v, _ in extended.items():
                    assert isinstance(v[dd.delta_index], int)

    def test_leading_coefficient(self):
        for name in ("GL2", "SO5"):
            dd = langlands_dual_data(BUILTINS[name])
            for lam in enumerate_dominant(dd.base, 2):
                assert satake_image(dd, lam).poly.coefficient(lam) == Laurent.one()


class TestStructurePolynomials:
    def test_unit(self):
        dd = langlands_dual_data(BUILTINS["Sp4"])
        zero = (0, 0)
        mu = (1, 1)
        expansion = structure_polynomials(dd, zero, mu)
        assert expansion.coeffs == {mu: Laurent.one()}

    def test_pgl2_square_of_fundamental(self):
        expansion = structure_polynomials(DD_PGL2, (1,), (1,))
        assert expansion.get((2,)) == Laurent.one()
        assert expansion.get((0,)) == Laurent({-1: 1, -2: 1})
        assert len(expansion.coeffs) == 2

    def test_gl3_fundamentals_unitriangular(self):
        dd = langlands_dual_data(BUILTINS["GL3"])
        omega1 = (1, 0, 0)
        omega2 = (1, 1, 0)
        expansion = structure_polynomials(dd, omega1, omega2)
        assert expansion.get((2, 1, 0)) == Laurent.one()

    def test_polynomiality_after_rescale(self):
        from heckedual.lattice import vec_add, vec_sub
        from heckedual.rootdatum import positive_root_sum

        for name in ("PGL2", "SL2", "GL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            t = positive_root_sum(dd.base)
            doms = enumerate_dominant(dd.base, 2)
            for lam in doms:
                for mu in doms:
                    expansion = structure_polynomials(dd, lam, mu)
                    for nu, coeff in expansion.items():
                        exponent = dot(t, vec_sub(vec_add(lam, mu), nu))
                        assert exponent >= 0 and exponent % 2 == 0
                        assert coeff.shift(exponent).min_exp() >= 0


def breadth_first_tree_counts(m, n, q):
    """Reference: build the tree of depth m + n around u breadth first, as
    parent and depth arrays, and count the w by walking parent pointers."""
    depth = m + n
    parent = [-1]
    node_depth = [0]
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            children = q + 1 if node == 0 else q
            for _ in range(children):
                parent.append(node)
                node_depth.append(node_depth[node] + 1)
                next_frontier.append(len(parent) - 1)
        frontier = next_frontier

    def distance(a, b):
        steps = 0
        while node_depth[a] > node_depth[b]:
            a = parent[a]
            steps += 1
        while node_depth[b] > node_depth[a]:
            b = parent[b]
            steps += 1
        while a != b:
            a = parent[a]
            b = parent[b]
            steps += 2
        return steps

    sphere_m = [idx for idx in range(len(parent)) if node_depth[idx] == m]
    counts = {}
    for d in range(abs(m - n), m + n + 1, 2):
        v = 0
        while node_depth[v] < d:
            v = next(idx for idx in range(len(parent)) if parent[idx] == v)
        counts[d] = sum(1 for w in sphere_m if distance(w, v) == n)
    return counts


class TestTreeOracle:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_paths_match_breadth_first_tree(self, q):
        for m in range(9):
            for n in range(9 - m):
                assert tree_structure_constants(m, n, q) == breadth_first_tree_counts(m, n, q)

    def test_node_cap(self):
        # the q = 4 tree of depth 10 has 1747626 vertices, of depth 11 6990506
        counts = tree_structure_constants(5, 5, 4)
        assert counts[0] == 5 * 4 ** 4 and counts[10] == 1
        for m, n in ((6, 5), (11, 0), (0, 11)):
            with pytest.raises(CapExceededError, match="tree size exceeds the node cap"):
                tree_structure_constants(m, n, 4, depth_cap=20)

    def test_depth_cap(self):
        with pytest.raises(CapExceededError, match="tree depth 13 exceeds the cap of 12"):
            tree_structure_constants(7, 6, 2)
        with pytest.raises(CapExceededError, match="tree depth 4 exceeds the cap of 3"):
            tree_structure_constants(2, 2, 2, depth_cap=3)
        assert tree_structure_constants(7, 6, 2, depth_cap=13) == \
            breadth_first_tree_counts(7, 6, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError, match="q >= 2"):
            tree_structure_constants(1, 1, 1)
        with pytest.raises(ValidationError, match="nonnegative"):
            tree_structure_constants(-1, 1, 2)

    def test_adjacent_spheres(self):
        assert tree_structure_constants(1, 1, 2) == {0: 3, 2: 1}

    def test_m1_n0(self):
        assert tree_structure_constants(1, 0, 2) == {1: 1}

    def test_radius_two_sphere(self):
        counts = tree_structure_constants(2, 2, 2)
        assert counts[0] == 6

    def test_counts_sum_to_sphere_size(self):
        # summing over v-positions weighted by sphere sizes recovers |S_m| * |S_n|
        q = 3
        m, n = 2, 2
        counts = tree_structure_constants(m, n, q)

        def sphere(radius):
            return 1 if radius == 0 else (q + 1) * q ** (radius - 1)

        total = sum(counts[d] * sphere(d) for d in counts)
        assert total == sphere(m) * sphere(n)


class TestOracleComparison:
    def test_first_cell(self):
        report = compare_rank1_oracle(2, 2)
        cell = [e for e in report.entries if (e.m, e.n, e.d) == (1, 1, 0)]
        assert len(cell) == 1
        assert cell[0].exponent == 2
        assert cell[0].tree_count == 3
        assert cell[0].ok

    def test_top_stratum(self):
        report = compare_rank1_oracle(3, 3)
        for e in report.entries:
            if e.d == e.m + e.n:
                assert e.exponent == 0 and e.tree_count == 1 and e.ok

    def test_no_failures_small(self):
        for q0 in (2, 3):
            report = compare_rank1_oracle(q0, 3)
            assert report.failures == ()
            assert report.observed_coefficient_ring == "Z[q]"
