"""Tests for exact lattice and group-algebra arithmetic."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from heckedual import lattice
from heckedual.dualdata import langlands_dual_data
from heckedual.errors import RankMismatchError, ValidationError
from heckedual.lattice import (
    GroupAlgebraElement,
    Laurent,
    add_products_into,
    as_int,
    fraction_monomial,
    mat_apply,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    pack,
    pack_slot,
    product_coefficients,
    repack,
    smith_normal_form,
    solve_integer_linear,
    t_laurent,
    vec_add,
    vec_sub,
)
from heckedual.rfunc import DualRepresentation, make_parameter
from heckedual.rootdatum import BUILTINS, RootDatum, dominance_leq, dominant_below, require_dominant
from heckedual.satake import (
    HeckeExpansion,
    UnramifiedCharacter,
    compare_rank1_oracle,
    satake_image,
    structure_polynomials,
    tree_structure_constants,
)


def ga(rank, terms):
    return GroupAlgebraElement(rank, terms)


def random_laurent(rng, size=3, span=3):
    return Laurent({rng.randint(-span, span): rng.randint(-4, 4) for _ in range(size)})


def random_t_laurent(rng, size=3, span=3):
    """A random polynomial in q^-1."""
    return Laurent({-rng.randint(0, span): rng.randint(-4, 4) for _ in range(size)})


def t_int(c):
    """The t-int of a polynomial in q^-1: the coefficient of q^-i in digit i."""
    return sum(v << -k * 64 for k, v in c.items())


def random_element(rng, rank, terms=3):
    return GroupAlgebraElement(
        rank,
        {tuple(rng.randint(-2, 2) for _ in range(rank)): random_laurent(rng)
         for _ in range(terms)},
    )


PGL2 = langlands_dual_data(BUILTINS["PGL2"])


class TestIntegerEntries:
    """Every entry point reads integer entries by one rule, ``as_int``."""

    @pytest.mark.parametrize("x, shown", [(1.5, "1.5"), (Fraction(3, 2), "3/2")])
    @pytest.mark.parametrize("call", [
        lambda x: RootDatum(1, ((x,),), ((2,),)),
        lambda x: RootDatum(x, ((1,),), ((2,),)),
        lambda x: require_dominant(BUILTINS["PGL2"], (x,)),
        lambda x: satake_image(PGL2, (x,)),
        lambda x: structure_polynomials(PGL2, (x,), (1,)),
        lambda x: structure_polynomials(PGL2, (1,), (x,)),
        lambda x: DualRepresentation(PGL2, ((x, 1),)),
        lambda x: DualRepresentation.from_orbits(PGL2, [(x, 0)]),
        lambda x: GroupAlgebraElement(1, {(x,): 1}),
        lambda x: GroupAlgebraElement(1, {(1,): x}),
        lambda x: Laurent({0: x}),
        lambda x: Laurent({x: 2}),
        lambda x: Laurent.term(x, 1),
        lambda x: GroupAlgebraElement.monomial((1,)).scale(x),
        lambda x: GroupAlgebraElement.monomial((1,)).coefficient((x,)),
        lambda x: structure_polynomials(PGL2, (1,), (1,)).get((x,)),
        lambda x: dominance_leq(BUILTINS["PGL2"], (x,), (3,)),
        lambda x: dominance_leq(BUILTINS["PGL2"], (1,), (x,)),
        lambda x: make_parameter(PGL2, 3, (Fraction(2),)).value_at((x, 1)),
        lambda x: UnramifiedCharacter(BUILTINS["PGL2"], ((Fraction(2), 1),)).value_at((x,)),
        lambda x: UnramifiedCharacter(BUILTINS["PGL2"], ((Fraction(2), x),)),
        lambda x: dominant_below(BUILTINS["PGL2"], (x,)),
        lambda x: HeckeExpansion(BUILTINS["PGL2"], {(x,): Laurent.one()}),
        lambda x: tree_structure_constants(x, 1, 2),
        lambda x: tree_structure_constants(1, x, 2),
        lambda x: tree_structure_constants(2, 1, x),
        lambda x: tree_structure_constants(1, 1, 2, depth_cap=x),
        lambda x: compare_rank1_oracle(x, 2),
        lambda x: compare_rank1_oracle(3, x),
        lambda x: compare_rank1_oracle(3, 2, depth_cap=x),
        lambda x: Laurent.one() + x,
        lambda x: x - Laurent.one(),
        lambda x: Laurent.one() * x,
        lambda x: GroupAlgebraElement.monomial((1,)) * x,
        lambda x: x * GroupAlgebraElement.monomial((1,)),
    ], ids=["datum-entry", "datum-rank", "require-dominant", "satake-image", "lhs", "rhs",
            "dual-representation", "from-orbits", "exponent", "coefficient",
            "laurent-coefficient", "laurent-exponent", "laurent-term", "scale", "coefficient-at",
            "expansion-get", "dominance-lower", "dominance-upper", "parameter-value",
            "character-value", "character-exponent", "dominant-below", "hecke-expansion-key",
            "tree-m", "tree-n", "tree-q", "tree-depth-cap", "oracle-q", "oracle-height",
            "oracle-depth-cap", "laurent-add", "laurent-rsub", "laurent-mul", "element-mul",
            "element-rmul"])
    def test_fraction_is_refused_not_truncated(self, call, x, shown):
        with pytest.raises(ValidationError, match=f"^expected an integer, got {shown}$"):
            call(x)

    def test_integral_values_are_read(self):
        assert [as_int(x) for x in (2, 2.0, Fraction(4, 2), "2", -0.0)] == [2, 2, 2, 2, 0]
        assert RootDatum(1.0, ((Fraction(1),),), ((2.0,),)) == BUILTINS["PGL2"]
        assert satake_image(PGL2, (Fraction(2),)) is satake_image(PGL2, (2,))
        assert Laurent({2.0: Fraction(6, 2)}) == Laurent.term(3, 2)
        assert dominance_leq(BUILTINS["PGL2"], (1.0,), (3,))
        assert make_parameter(PGL2, 3, (Fraction(2),)).value_at((3.0, 1)) == 24
        with pytest.raises(ValidationError, match="^expected an integer, got true$"):
            as_int(True)


class TestFractionMonomial:
    def test_matches_repeated_powers(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(0, 5)
            values = [rng.choice((Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
                                  rng.choice((-3, -1, 1, 2, 7)))) for _ in range(n)]
            exponents = [rng.randint(-4, 4) for _ in range(n)]
            expected = Fraction(1)
            for v, e in zip(values, exponents):
                expected *= Fraction(v) ** e
            got = fraction_monomial([(v.numerator, v.denominator) for v in values], exponents)
            assert got == expected and type(got) is Fraction
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    def test_zero_to_a_negative_power(self):
        assert fraction_monomial(((0, 1), (2, 1)), (1, -1)) == 0
        assert fraction_monomial(((0, 1),), (0,)) == 1
        with pytest.raises(ZeroDivisionError):
            fraction_monomial(((3, 1), (0, 1)), (1, -2))


class TestLaurent:
    def test_normalization_drops_zeros(self):
        assert Laurent({0: 0, 2: 1}) == Laurent({2: 1})
        assert Laurent({3: 0}).is_zero()

    def test_a_constant_hashes_like_its_int(self):
        # a constant equals its int, so sets and dicts must take one for the other
        assert Laurent.one() == 1 and len({Laurent.one(), 1}) == 1
        assert {3: "x"}.get(Laurent.term(3)) == "x"
        for c in (0, 1, -1, -2, 7, 1 << 70, -(1 << 70)):
            assert Laurent.term(c) == c and hash(Laurent.term(c)) == hash(c)
        # a bool is not read as an integer, so it meets a constant of its hash
        # as an unequal key
        assert Laurent.one() != True and len({True, Laurent.one(), False, Laurent.zero()}) == 4

    def test_scalar_operands_follow_as_int(self):
        # an integral float or Fraction works as its int, in both operand
        # orders, and equals the constant it reads as
        a = Laurent({1: 2, -1: 1})
        m = GroupAlgebraElement.monomial((1,), a)
        for x in (3.0, Fraction(6, 2)):
            assert a + x == x + a == a + 3 and a - x == a - 3 and x - a == 3 - a
            assert a * x == x * a == a * 3 and m * x == x * m == m * 3
            assert Laurent.term(3) == x and x == Laurent.term(3) and hash(Laurent.term(3)) == hash(x)
            assert Laurent.term(3) in {x} and x in {Laurent.term(3)}
        assert Laurent.one() + 1.0 == 2 and Laurent.one() == 1.0 and Laurent.zero() == -0.0
        # a fractional value or a bool is refused in arithmetic, is unequal to
        # every Laurent, and does not make == raise
        for x in (0.5, Fraction(1, 2), float("inf"), float("nan")):
            assert Laurent.one() != x and x != Laurent.one() and not Laurent.zero() == x
        for x in (True, False):
            assert Laurent.term(int(x)) != x and x != Laurent.term(int(x))
            for call in (lambda: a + x, lambda: x * a, lambda: m * x, lambda: x * m):
                with pytest.raises(ValidationError, match="^expected an integer, got (true|false)$"):
                    call()
        # anything else is no scalar
        with pytest.raises(TypeError):
            a + "1"
        assert a != "1" and a != None

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

    def test_str(self):
        assert str(Laurent({1: 1, 0: -2, -2: 3})) == "q - 2 + 3*q^-2"
        assert str(Laurent.zero()) == "0"
        assert str(Laurent.one()) == "1"
        assert str(Laurent({1: -1})) == "-q"
        assert str(Laurent({-1: 2, 3: -1})) == "-q^3 + 2*q^-1"
        assert str(Laurent({0: -5, 1: 1, -1: -1})) == "q - 5 - q^-1"
        assert str(Laurent({2: 7, -3: -1})) == "7*q^2 - q^-3"
        assert repr(Laurent({0: 1, -1: 1})) == "Laurent(1 + q^-1)"

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


def dict_sum(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def dict_product(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def edge_laurent(rng):
    """One to three terms whose coefficients reach near 2^63, with norm
    below 2^63 - 1."""
    exps = rng.sample(range(-5, 6), rng.randint(1, 3))
    room = ((1 << 63) - 2) // len(exps)
    return Laurent({e: rng.randint(1, room) * rng.choice((-1, 1)) for e in exps})


class TestPackedLaurent:
    """Laurent is its lowest exponent and a tuple of int coefficients; every
    result must match a plain {exponent: coefficient} computation, at any
    size of coefficient."""

    def check(self, x, expected):
        assert x.items() == sorted(expected.items())
        assert x == Laurent(expected) and hash(x) == hash(Laurent(expected))
        assert x.is_zero() == (not expected)
        if expected:
            assert x.min_exp() == min(expected)

    def test_random_arithmetic_matches_dicts(self):
        rng = random.Random(41)
        for _ in range(300):
            a, b = random_laurent(rng, size=4, span=5), random_laurent(rng, size=4, span=5)
            da, db = dict(a.items()), dict(b.items())
            self.check(a + b, dict_sum(da, db))
            self.check(a - b, dict_sum(da, db, -1))
            self.check(a * b, dict_product(da, db))
            self.check(-a, {k: -v for k, v in da.items()})
            k = rng.randint(-7, 7)
            self.check(a.shift(k), {e + k: v for e, v in da.items()})
            self.check(a * 3 - 2, dict_sum({e: 3 * v for e, v in da.items()}, {0: 2}, -1))

    def test_cancellation_to_zero(self):
        rng = random.Random(43)
        for _ in range(50):
            a, b = random_laurent(rng, span=6), random_laurent(rng, span=6)
            for zero in (a - a, a + (-a), a * b - b * a, (a + b) - b - a):
                self.check(zero, {})
                assert zero == Laurent.zero() and hash(zero) == hash(Laurent.zero())
                assert str(zero) == "0"
                with pytest.raises(ValueError):
                    zero.min_exp()
        # the lowest digits cancel and the rest moves down into place
        x = Laurent({-3: 2, -1: 1, 4: -1}) + Laurent({-3: -2, 2: 5})
        self.check(x, {-1: 1, 2: 5, 4: -1})

    def test_coefficients_near_the_slot_edge(self):
        rng = random.Random(47)
        top = (1 << 63) - 1
        for coeffs in ({0: top}, {0: -top}, {-2: top >> 1, 1: -(top >> 1)},
                       {0: -(1 << 62), 1: (1 << 62) - 1}, {-1: -1, 0: -(1 << 62), 3: 1}):
            x = Laurent(coeffs)
            self.check(x, coeffs)
            self.check(-x, {k: -v for k, v in coeffs.items()})
            self.check(x.shift(-9), {k - 9: v for k, v in coeffs.items()})
        for _ in range(200):
            a = edge_laurent(rng)
            da = dict(a.items())
            self.check(a, da)
            self.check(-a, {k: -v for k, v in da.items()})
            self.check(a + Laurent({9: 1}), dict_sum(da, {9: 1}))
            self.check(a.shift(4) - Laurent({1: -1}),
                       dict_sum({k + 4: v for k, v in da.items()}, {1: 1}))
        half = Laurent({0: (1 << 62) - 1})
        self.check(half + half, {0: (1 << 63) - 2})
        self.check(Laurent({0: 1 << 31}) * Laurent({0: (1 << 31) - 1, 5: -3}),
                   {0: (1 << 62) - (1 << 31), 5: -3 << 31})

    def test_values_past_half_a_slot_are_exact(self):
        # each has norm 2^63, past what a 64-bit digit holds: all five decode
        # exactly, to the two values they are
        big = Laurent({0: 1 << 62})
        two = Laurent({0: 1 << 62, 1: 1 << 62})
        self.check(two, {0: 1 << 62, 1: 1 << 62})
        assert str(two) == "4611686018427387904*q + 4611686018427387904"
        for x in (Laurent({0: 1 << 63}), big + big, big * 2, big - (-big)):
            self.check(x, {0: 1 << 63})
            assert x and x != Laurent.zero() and str(x) == "9223372036854775808"

    def test_arithmetic_past_two_to_the_63_matches_dicts(self):
        rng = random.Random(53)
        for _ in range(100):
            a, b = (Laurent({e: rng.randint(-(1 << bits), 1 << bits)
                             for e in rng.sample(range(-5, 6), rng.randint(1, 4))})
                    for bits in (70, 200))
            da, db = dict(a.items()), dict(b.items())
            self.check(a + b, dict_sum(da, db))
            self.check(a - b, dict_sum(da, db, -1))
            self.check(a * b, dict_product(da, db))
            self.check(a * a - a * a, {})

    def test_group_algebra_power_past_two_to_the_63(self):
        # (1 + q)^70 and (1 + q e^1)^70: the middle binomials pass 2^63, the
        # first as a Laurent product, the second as sums where terms meet
        binomials = {k: math.comb(70, k) for k in range(71)}
        assert binomials[35] > 1 << 63
        reference = {0: 1}
        for _ in range(70):
            reference = dict_product(reference, {0: 1, 1: 1})
        assert reference == binomials
        a = GroupAlgebraElement.monomial((1,), Laurent({0: 1, 1: 1}))
        b = GroupAlgebraElement.one(1) + GroupAlgebraElement.monomial((1,), Laurent.q_power(1))
        pa, pb = a, b
        for _ in range(69):
            pa, pb = pa * a, pb * b
        assert pa.items() == [((70,), Laurent(reference))]
        assert pb.items() == [((k,), Laurent.term(c, k)) for k, c in sorted(reference.items())]

    def test_loose_bounds_take_exact_norms(self):
        # y * x - y * (x - 1) == y, sixty times over: a bound on the norms
        # that multiplied by 2 |x|_1 + 1 = 9 per step would pass 2^63 long
        # before the end, while the norms themselves stay put
        x = Laurent({-1: 1, 2: -3})
        y = Laurent({0: 2, 1: -1})
        for _ in range(60):
            y = y * x - y * (x - 1)
        assert y == Laurent({0: 2, 1: -1})


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

    def test_coefficient_refuses_a_wrong_rank(self):
        x = GroupAlgebraElement.monomial((1, 2), 3)
        assert x.coefficient((1, 2)) == 3
        for v in ((1,), (1, 2, 3)):
            with pytest.raises(RankMismatchError):
                x.coefficient(v)

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
                f = ga(2, {vec_add(o, r): random_t_laurent(rng) for r in offsets})
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

    def test_smith_normal_form_is_cross_checked(self, monkeypatch):
        # a product that disagrees with D trips the self-check, also under -O
        monkeypatch.setattr(lattice, "mat_mul", lambda a, b: ((0,),))
        with pytest.raises(RuntimeError, match="^internal: Smith normal form"):
            smith_normal_form(((2,),))

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
