"""Tests for exact lattice and group-algebra arithmetic."""

import random
from fractions import Fraction

import pytest

from heckedual.errors import RankMismatchError
from heckedual.lattice import (
    GroupAlgebraElement,
    Laurent,
    mat_apply,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    smith_normal_form,
    solve_integer_linear,
)


def ga(rank, terms):
    return GroupAlgebraElement(rank, terms)


def random_laurent(rng, size=3, span=3):
    return Laurent({rng.randint(-span, span): rng.randint(-4, 4) for _ in range(size)})


def random_element(rng, rank, terms=3):
    return GroupAlgebraElement(
        rank,
        {tuple(rng.randint(-2, 2) for _ in range(rank)): random_laurent(rng)
         for _ in range(terms)},
    )


class TestLaurent:
    def test_normalization_drops_zeros(self):
        assert Laurent({0: 0, 2: 1}) == Laurent({2: 1})
        assert Laurent({3: 0}).is_zero()

    def test_arithmetic(self):
        a = Laurent({1: 2, -1: 1})
        b = Laurent({0: 1, 1: -2})
        assert a + b == Laurent({-1: 1, 0: 1})
        assert a * b == Laurent({-1: 1, 0: -2, 1: 2, 2: -4})
        assert a - a == Laurent.zero()
        assert 3 * a == Laurent({1: 6, -1: 3})

    def test_evaluate(self):
        a = Laurent({-1: 1, 2: 3})
        assert a.evaluate(Fraction(2)) == Fraction(1, 2) + 12

    def test_substitute_inverse(self):
        a = Laurent({1: 1, 0: 1})
        assert a.substitute_inverse() == Laurent({-1: 1, 0: 1})

    def test_str(self):
        assert str(Laurent({1: 1, 0: -2, -2: 3})) == "q - 2 + 3*q^-2"
        assert str(Laurent.zero()) == "0"

    def test_add_product_into_accumulates(self):
        rng = random.Random(29)
        for _ in range(20):
            a, b, c = (random_laurent(rng) for _ in range(3))
            acc = dict(c.items())
            a.add_product_into(b, acc)
            assert Laurent(acc) == c + a * b
        # cancelled entries stay behind as zeros and drop on conversion
        acc = {}
        Laurent({1: 1}).add_product_into(Laurent({0: 2}), acc)
        Laurent({1: -2}).add_product_into(Laurent({0: 1}), acc)
        assert acc == {1: 0} and Laurent(acc).is_zero()


class TestGroupAlgebra:
    def test_inverse_monomials(self):
        alpha = (1, 0)
        a = GroupAlgebraElement.monomial(alpha)
        b = GroupAlgebraElement.monomial((-1, 0))
        assert a * b == GroupAlgebraElement.one(2)

    def test_difference_of_squares(self):
        alpha = (2,)
        one = GroupAlgebraElement.one(1)
        em = GroupAlgebraElement.monomial((-2,))
        lhs = (one - em) * (one + em)
        assert lhs == one - GroupAlgebraElement.monomial((-4,))

    def test_scalar_cancellation(self):
        mu = (1, 1)
        a = GroupAlgebraElement.monomial(mu, Laurent.q_power(1))
        b = GroupAlgebraElement.monomial(mu, Laurent.q_power(-1))
        assert a * b == GroupAlgebraElement.monomial((2, 2))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            GroupAlgebraElement.one(1) * GroupAlgebraElement.one(2)

    def test_apply_map_identity_and_negation(self):
        rng = random.Random(3)
        x = random_element(rng, 2)
        assert x.apply_map(mat_identity(2)) == x
        neg = ((-1, 0), (0, -1))
        alpha = GroupAlgebraElement.monomial((1, 0))
        assert alpha.apply_map(neg) == GroupAlgebraElement.monomial((-1, 0))

    def test_apply_map_extended_simple_reflection(self):
        # reflection on the extended lattice of the rank-1 adjoint datum:
        # alpha~ = (1,0), alpha~vee = (2,1) gives mat = I - alphavee (x) alpha
        refl = ((-1, 0), (-1, 1))
        mu_tilde = GroupAlgebraElement.monomial((1, 0))
        expect = GroupAlgebraElement.monomial((1 - 2, 0 - 1))
        assert mu_tilde.apply_map(refl) == expect

    def test_specialize_delta(self):
        x = GroupAlgebraElement.monomial((3, 1))
        assert x.specialize_delta(1) == GroupAlgebraElement.monomial((3,), Laurent.q_power(1))
        y = GroupAlgebraElement.monomial((2, 0)) + GroupAlgebraElement.monomial((-2, -1))
        spec = y.specialize_delta(1)
        assert spec == (GroupAlgebraElement.monomial((2,))
                        + GroupAlgebraElement.monomial((-2,), Laurent.q_power(-1)))
        const = GroupAlgebraElement.one(2)
        assert const.specialize_delta(1) == GroupAlgebraElement.one(1)

    def test_multiplication_algebra_laws(self):
        rng = random.Random(5)
        for _ in range(15):
            a = random_element(rng, 2)
            b = random_element(rng, 2)
            c = random_element(rng, 2)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_apply_map_composition(self):
        rng = random.Random(13)
        m1 = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        m2 = tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))
        for _ in range(10):
            a = random_element(rng, 2)
            assert a.apply_map(mat_mul(m1, m2)) == a.apply_map(m2).apply_map(m1)

    def test_shift_is_monomial_product(self):
        rng = random.Random(19)
        for _ in range(10):
            a = random_element(rng, 3)
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            assert a.shift(v) == a * GroupAlgebraElement.monomial(v)

    def test_product_coefficients_at_points(self):
        rng = random.Random(31)
        points = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for _ in range(10):
            a, b = random_element(rng, 2), random_element(rng, 2)
            found = a.product_coefficients(b, points)
            full = a * b
            for v in points:
                assert Laurent(found.get(v)) == full.coefficient(v)

    def test_specialize_is_ring_hom(self):
        rng = random.Random(17)
        for _ in range(15):
            a = random_element(rng, 3)
            b = random_element(rng, 3)
            assert (a * b).specialize_delta(2) == a.specialize_delta(2) * b.specialize_delta(2)


class TestCollect:
    """GroupAlgebraElement.collect sums every group-algebra operation's
    terms; none of them may leave a zero coefficient stored."""

    def test_collect_is_the_sum_of_its_groups(self):
        rng = random.Random(23)
        for _ in range(10):
            parts = [random_element(rng, 2) for _ in range(4)]
            total = GroupAlgebraElement.collect(2, (x.items() for x in parts))
            assert total == parts[0] + parts[1] + parts[2] + parts[3]
            assert GroupAlgebraElement.collect(2, (x.items() for x in parts + [-total])).is_zero()

    def test_difference_with_itself_stores_nothing(self):
        rng = random.Random(29)
        for _ in range(10):
            x = random_element(rng, 3)
            assert (x - x).is_zero()
            assert (x + (-x)).items() == []
            y = GroupAlgebraElement.monomial((9, 9, 9), Laurent.q_power(2))
            assert ((x + y) - x).support() == ((9, 9, 9),)

    def test_apply_map_that_cancels_stores_nothing(self):
        x = ga(2, {(1, 0): 1, (0, 1): -1})
        image = x.apply_map(((1, 1),))
        assert image.is_zero() and image.rank == 1

    def test_specialize_delta_that_cancels_stores_nothing(self):
        # e^(0,1) - q e^(0,0) restricts to q e^0 - q e^0
        x = ga(2, {(0, 1): 1, (0, 0): Laurent.term(-1, 1)})
        spec = x.specialize_delta(1)
        assert spec.is_zero() and spec.rank == 1


class TestIntegerLinearAlgebra:
    def test_det(self):
        assert mat_det(((2, 0), (0, 3))) == 6
        assert mat_det(((1, 2), (2, 4))) == 0

    def test_unimodular_inverse(self):
        m = ((1, 1), (-1, 0))
        inv = mat_inverse_unimodular(m)
        assert mat_mul(m, inv) == mat_identity(2)

    def test_smith_normal_form(self):
        m = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        d, s, t = smith_normal_form(m)
        assert mat_mul(mat_mul(s, m), t) == d
        diag = [d[i][i] for i in range(3)]
        assert diag == [2, 2, 156]
        assert abs(mat_det(s)) == 1 and abs(mat_det(t)) == 1

    def test_solve_integer_linear(self):
        # 2x = 1 has no integer solution
        assert solve_integer_linear(((2,),), (1,)) is None
        sol = solve_integer_linear(((1, -1),), (1,))
        assert sol is not None
        part, kernel = sol
        assert part[0] - part[1] == 1
        assert len(kernel) == 1 and kernel[0][0] == kernel[0][1]

    def test_solve_random_consistency(self):
        rng = random.Random(23)
        for _ in range(30):
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
            x = tuple(rng.randint(-3, 3) for _ in range(3))
            b = mat_apply(m, x)
            sol = solve_integer_linear(m, b)
            assert sol is not None
            part, kernel = sol
            assert mat_apply(m, part) == b
            for k in kernel:
                assert mat_apply(m, k) == (0, 0)
