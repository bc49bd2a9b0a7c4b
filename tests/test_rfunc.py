"""Tests for parameters, local factors, the splitting and the sign twist."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from heckedual.dualdata import LanglandsDualData, langlands_dual_data
from heckedual.errors import OmegaViolationError, PoleError, RankMismatchError, ValidationError
from heckedual.rootdatum import BUILTINS, TRIVIAL, RootDatum
from heckedual.rfunc import (
    DualRepresentation,
    QuadExt,
    RFactor,
    TorusAssignment,
    UnramifiedParameter,
    contragredient_rep,
    epsilon_twist,
    field_conjugate,
    local_rfactor,
    make_parameter,
    partial_rfunction,
    primes_below,
    split_by_sqrt,
    sqrt_of,
    tensor_with_projection,
)

DD_PGL2 = langlands_dual_data(BUILTINS["PGL2"])
DD_TRIVIAL = langlands_dual_data(TRIVIAL)

# every builtin and its extension, as a datum in its own right; SO5 has
# odd and negative j = (-3, -1, 2), Sp4 an all-even j = (-4, -2, 2)
SPLIT_DATA = (TRIVIAL,) + tuple(BUILTINS.values()) + tuple(
    langlands_dual_data(d).ext for d in BUILTINS.values())


class TestQuadExt:
    def test_arithmetic(self):
        x = QuadExt(Fraction(1), Fraction(1), Fraction(2))  # 1 + sqrt2
        y = QuadExt(Fraction(1), Fraction(-1), Fraction(2))
        assert x * y == -1
        assert x + y == 2
        assert (x * x) == QuadExt(Fraction(3), Fraction(2), Fraction(2))

    def test_inverse(self):
        x = QuadExt(Fraction(3), Fraction(1), Fraction(2))
        assert x * x.inverse() == 1
        assert x ** -2 == (x * x).inverse()

    def test_conjugate_is_automorphism(self):
        rng = random.Random(0)
        for _ in range(20):
            a = QuadExt(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), Fraction(2))
            b = QuadExt(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)), Fraction(2))
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    def test_power_is_repeated_multiplication(self):
        rng = random.Random(7)
        for _ in range(30):
            x = QuadExt(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3))))
            if not x:
                continue
            for step, sign in ((x, 1), (x.inverse(), -1)):
                expected = QuadExt(Fraction(1), Fraction(0), x.rad)
                for n in range(7):
                    assert x ** (sign * n) == expected
                    expected = expected * step

    def test_scalar_product_matches_embedded_scalar(self):
        x = QuadExt(Fraction(3, 2), Fraction(-5, 7), Fraction(3))
        for c in (0, 1, -4, Fraction(2, 9)):
            expected = x * QuadExt(Fraction(c), Fraction(0), x.rad)
            for product in (x * c, c * x):
                assert type(product) is QuadExt
                assert (product.a, product.b, product.rad) == (expected.a, expected.b, expected.rad)

    @pytest.mark.parametrize("a, b, rad, shown", [
        (0.1, 1, 2, "0.1"), ("1/3", 1, 2, "'1/3'"), (True, 1, 2, "true"),
        (1, 0.5, 2, "0.5"), (1, 1, 2.0, "2.0"), (1, False, 2, "false"),
    ])
    def test_constructor_refuses_floats_strings_and_booleans(self, a, b, rad, shown):
        with pytest.raises(ValidationError, match=f"^expected a Fraction or an int, got {shown}$"):
            QuadExt(a, b, rad)

    def test_constructor_reads_ints_as_fractions(self):
        x = QuadExt(1, -2, 3)
        assert (x.a, x.b, x.rad) == (1, -2, 3)
        assert all(type(f) is Fraction for f in (x.a, x.b, x.rad))
        assert x == QuadExt(Fraction(1), Fraction(-2), Fraction(3))

    def test_sqrt_of(self):
        assert sqrt_of(Fraction(9)) == 3
        assert sqrt_of(Fraction(9, 4)) == Fraction(3, 2)
        root = sqrt_of(Fraction(2))
        assert isinstance(root, QuadExt)
        assert root * root == 2
        assert sqrt_of(4) == 2 and type(sqrt_of(4)) is Fraction
        for q, shown in ((2.5, "2.5"), (0.1, "0.1"), ("2", "'2'"), (True, "true")):
            with pytest.raises(ValidationError, match=f"^expected a Fraction or an int, got {shown}$"):
                sqrt_of(q)


class TestParameters:
    def test_construction(self):
        p = make_parameter(DD_PGL2, 3, (Fraction(2),))
        assert p.delta_value() == 3
        assert p.value_at((1, 1)) == 6

    def test_zero_value_rejected(self):
        with pytest.raises(ValidationError):
            make_parameter(DD_PGL2, 3, (Fraction(0),))

    def test_int_values_are_read_as_fractions(self):
        p = make_parameter(DD_PGL2, 3, (2,))
        assert p.values == (Fraction(2), Fraction(3))
        assert all(type(v) is Fraction for v in p.values) and type(p.q) is Fraction
        tau = DualRepresentation.from_orbits(DD_PGL2, [(1, 0)])
        roots = local_rfactor(p, tau).inverse_roots
        assert sorted(roots) == [Fraction(1, 6), Fraction(2)]
        assert all(type(c) is Fraction for c in roots)
        # a Fraction is handed through as it is
        half = Fraction(1, 2)
        assert make_parameter(DD_PGL2, 3, (half,)).values[0] is half

    @pytest.mark.parametrize("q, values, shown", [
        (3, (0.5,), "0.5"), (3, (2.0,), "2.0"), (2.5, (Fraction(2),), "2.5"),
        (3.0, (Fraction(2),), "3.0"), (3, ("2",), "'2'"),
    ])
    def test_floats_and_strings_are_refused(self, q, values, shown):
        with pytest.raises(ValidationError, match=f"^expected a Fraction or an int, got {shown}$"):
            make_parameter(DD_PGL2, q, values)

    @pytest.mark.parametrize("q, values", [(3, (True,)), (True, (Fraction(2),)), (3, (False,))])
    def test_booleans_are_refused(self, q, values):
        with pytest.raises(ValidationError, match="^expected a Fraction or an int, got (true|false)$"):
            make_parameter(DD_PGL2, q, values)

    def test_direct_construction_checks_delta(self):
        with pytest.raises(OmegaViolationError):
            UnramifiedParameter(DD_PGL2, (Fraction(2), Fraction(5)), Fraction(3))

    @pytest.mark.parametrize("values, q, shown", [
        ((0.5, Fraction(3)), Fraction(3), "0.5"),
        ((Fraction(2), 3.0), 3.0, "3.0"),
        ((Fraction(2), Fraction(3)), 3.0, "3.0"),
        ((True, Fraction(3)), Fraction(3), "true"),
    ])
    def test_direct_construction_refuses_floats(self, values, q, shown):
        with pytest.raises(ValidationError, match=f"^expected a Fraction or an int, got {shown}$"):
            UnramifiedParameter(DD_PGL2, values, q)

    @pytest.mark.parametrize("values, shown", [((0.5, 1), "0.5"), ((2, 1.0), "1.0"), ((True, 1), "true")])
    def test_assignment_refuses_floats(self, values, shown):
        with pytest.raises(ValidationError, match=f"^expected a Fraction or an int, got {shown}$"):
            TorusAssignment(DD_PGL2, values)

    def test_direct_construction_reads_ints_as_fractions(self):
        p = UnramifiedParameter(DD_PGL2, (2, 3), 3)
        assert p == make_parameter(DD_PGL2, 3, (2,))
        assert all(type(v) is Fraction for v in p.values) and type(p.q) is Fraction
        # q = 4 split by 2: 2 * 2 at the odd j_k = -1, and 4 * 4^-1 at delta
        split = TorusAssignment(DD_PGL2, (4, 1))
        assert split == split_by_sqrt(make_parameter(DD_PGL2, 4, (2,)), 2)
        assert all(type(v) is Fraction for v in split.values)

    def test_q_is_required(self):
        with pytest.raises(TypeError):
            UnramifiedParameter(DD_PGL2, (Fraction(2), Fraction(2)))

    def test_trivial_datum(self):
        p = make_parameter(DD_TRIVIAL, 4, ())
        assert p.values == (Fraction(4),)

    def test_value_at_refuses_a_wrong_rank(self):
        p = make_parameter(langlands_dual_data(BUILTINS["GL2"]), 3, (Fraction(2), Fraction(5)))
        assert p.value_at((1, 1, 1)) == 30
        for y in ((1,), (1, 1), (1, 1, 1, 7)):
            with pytest.raises(RankMismatchError):
                p.value_at(y)
        assert issubclass(RankMismatchError, ValidationError)


class TestRepresentations:
    def test_pgl2_standard_is_stable(self):
        tau = DualRepresentation(DD_PGL2, ((1, 1), (-1, 0)))
        assert tau.dimension == 2

    def test_unstable_rejected(self):
        with pytest.raises(ValidationError):
            DualRepresentation(DD_PGL2, ((1, 1),))

    def test_orbit_construction(self):
        tau = DualRepresentation.from_orbits(DD_PGL2, [(1, 1)])
        assert tau.weights == ((-1, 0), (1, 1))

    def test_contragredient_examples(self):
        trivial = DualRepresentation.trivial(DD_PGL2)
        assert contragredient_rep(DD_PGL2, trivial).weights == (DD_PGL2.i,)
        standard = DualRepresentation(DD_PGL2, ((1, 1), (-1, 0)))
        assert contragredient_rep(DD_PGL2, standard) == standard

    def test_contragredient_involution_random(self):
        rng = random.Random(1)
        for name in ("GL2", "Sp4"):
            dd = langlands_dual_data(BUILTINS[name])
            for _ in range(20):
                seeds = [tuple(rng.randint(-2, 2) for _ in range(dd.ext.rank))
                         for _ in range(rng.randint(1, 3))]
                tau = DualRepresentation.from_orbits(dd, seeds)
                assert contragredient_rep(dd, contragredient_rep(dd, tau)) == tau

    def test_contragredient_refuses_other_dual_data(self):
        # PGL2's trivial weight (0, 0) read against SL2's delta would give
        # ((0, 1),), a representation of neither group
        tau = DualRepresentation.trivial(DD_PGL2)
        with pytest.raises(ValidationError, match="different dual data"):
            contragredient_rep(langlands_dual_data(BUILTINS["SL2"]), tau)
        # equal dual data under another name is the same group
        renamed = langlands_dual_data(RootDatum(1, ((1,),), ((2,),), "renamed"))
        assert contragredient_rep(renamed, tau) == contragredient_rep(DD_PGL2, tau)


class TestLocalFactors:
    def test_trivial_rep_zeta_factor(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        factor = local_rfactor(p, DualRepresentation.trivial(DD_TRIVIAL))
        assert factor.inverse_roots == (Fraction(1),)
        assert factor.evaluate(1.0) == pytest.approx(2.0)

    def test_projection_rep(self):
        p = make_parameter(DD_PGL2, 3, (Fraction(2),))
        factor = local_rfactor(p, DualRepresentation(DD_PGL2, (DD_PGL2.i,)))
        assert factor.inverse_roots == (Fraction(3),)
        # (1 - q^(1-s))^-1 at s = 2 is (1 - 1/3)^-1
        assert factor.evaluate(2.0) == pytest.approx(1.5)

    def test_pgl2_standard_roots(self):
        a = Fraction(5)
        p = make_parameter(DD_PGL2, 3, (a,))
        tau = DualRepresentation(DD_PGL2, ((1, 1), (-1, 0)))
        factor = local_rfactor(p, tau)
        assert sorted(factor.inverse_roots) == sorted((a * 3, 1 / a))

    @pytest.mark.parametrize("bad", [2.5, True, "2"], ids=["float", "bool", "str"])
    def test_rfactor_refuses_inexact_inputs(self, bad):
        with pytest.raises(ValidationError, match="expected a Fraction or an int"):
            RFactor(bad, (Fraction(1, 2),))
        with pytest.raises(ValidationError, match="expected a Fraction or an int"):
            RFactor(Fraction(2), (Fraction(1, 2), bad))

    def test_rfactor_reads_exact_inputs(self):
        gen = sqrt_of(Fraction(2))
        factor = RFactor(2, [3, Fraction(1, 2), gen])
        assert factor.q == 2 and type(factor.q) is Fraction
        assert factor.inverse_roots == (Fraction(3), Fraction(1, 2), gen)
        assert [type(c) for c in factor.inverse_roots] == [Fraction, Fraction, QuadExt]

    def test_local_rfactor_builds_unchecked(self, monkeypatch):
        p = make_parameter(DD_PGL2, 3, (Fraction(2),))
        tau = DualRepresentation(DD_PGL2, ((1, 1), (-1, 0)))
        expected = local_rfactor(p, tau)
        checked = []
        monkeypatch.setattr(RFactor, "__init__", lambda self, *args: checked.append(self))
        assert local_rfactor(p, tau) == expected and checked == []

    @pytest.mark.parametrize("datum", SPLIT_DATA, ids=lambda d: d.name)
    def test_local_rfactor_is_value_at(self, datum):
        """Each inverse root is the parameter's value_at the weight, equal in
        value, type, str and hash, on rational and Q(sqrt q) values, square
        q included; a zero divisor to a negative power raises on both sides."""
        dd = langlands_dual_data(datum)
        rng = random.Random(12)
        for q in (Fraction(9), Fraction(2), Fraction(9, 4), Fraction(3, 2)):
            gen = QuadExt(Fraction(0), Fraction(1), q)
            rational = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(dd.base.rank))
            quadratic = tuple(rng.randint(1, 5) + Fraction(rng.randint(-5, 5), 3) * gen
                              for _ in range(dd.base.rank))
            for base_values in (rational, quadratic):
                x = make_parameter(dd, q, base_values)
                for _ in range(4):
                    seeds = [tuple(rng.randint(-2, 2) for _ in range(dd.ext.rank))
                             for _ in range(rng.randint(1, 3))]
                    tau = DualRepresentation.from_orbits(dd, seeds)
                    try:
                        expected = [x.value_at(w) for w in tau.weights]
                    except ZeroDivisionError:
                        with pytest.raises(ZeroDivisionError):
                            local_rfactor(x, tau)
                        continue
                    got = local_rfactor(x, tau).inverse_roots
                    assert list(got) == expected
                    assert [type(c) for c in got] == [type(c) for c in expected]
                    assert [str(c) for c in got] == [str(c) for c in expected]
                    assert [hash(c) for c in got] == [hash(c) for c in expected]

    def test_pole_detection(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        factor = local_rfactor(p, DualRepresentation.trivial(DD_TRIVIAL))
        with pytest.raises(PoleError):
            factor.evaluate(0.0)

    def test_pole_missed_by_floats(self):
        # (2*sqrt 2) * 2^-1.5 = 1 exactly; in floats 1 - c*u is -2.2e-16
        factor = RFactor(Fraction(2), (2 * sqrt_of(Fraction(2)),))
        with pytest.raises(PoleError):
            factor.evaluate(1.5)
        p = make_parameter(DD_PGL2, 7, (Fraction(1),))
        factor = local_rfactor(p, DualRepresentation(DD_PGL2, ((0, 2),)))
        with pytest.raises(PoleError):
            factor.evaluate(2.0)

    def test_near_pole_is_not_a_pole(self):
        # within the float tolerance of a pole, but exactly not one
        c = 1 + Fraction(1, 10 ** 12)
        assert RFactor(Fraction(2), (c,)).evaluate(0.0) == pytest.approx(-1e12, rel=1e-3)
        sqrt2 = sqrt_of(Fraction(2))
        near = 2 * sqrt2 + Fraction(1, 10 ** 12)
        assert abs(RFactor(Fraction(2), (near,)).evaluate(1.5)) > 1e11

    def test_pole_tolerance_decides_for_long_exponents(self):
        # s = 0.1 is a/b with b = 5 * 2^55; the float tolerance decides
        c = Fraction(2 ** 0.1)
        with pytest.raises(PoleError):
            RFactor(Fraction(2), (c,)).evaluate(0.1)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_s_is_refused(self, s):
        p = make_parameter(DD_TRIVIAL, 2, ())
        factor = local_rfactor(p, DualRepresentation.trivial(DD_TRIVIAL))
        with pytest.raises(ValidationError, match="must be finite"):
            factor.evaluate(s)
        # the check does not depend on there being an inverse root
        with pytest.raises(ValidationError, match="must be finite"):
            RFactor(Fraction(2), ()).evaluate(s)

    def test_degree_matches_dimension(self):
        rng = random.Random(2)
        dd = langlands_dual_data(BUILTINS["GL2"])
        for _ in range(10):
            seeds = [tuple(rng.randint(-2, 2) for _ in range(3))
                     for _ in range(rng.randint(1, 3))]
            tau = DualRepresentation.from_orbits(dd, seeds)
            p = make_parameter(dd, 5, (Fraction(2), Fraction(3, 7)))
            assert len(local_rfactor(p, tau).inverse_roots) == tau.dimension

    def test_shift_identity_random(self):
        rng = random.Random(3)
        dd = langlands_dual_data(BUILTINS["PGL2"])
        for _ in range(20):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            q = rng.choice((2, 3, 5))
            p = make_parameter(dd, q, (a,))
            seeds = [tuple(rng.randint(-2, 2) for _ in range(2))
                     for _ in range(rng.randint(1, 3))]
            tau = DualRepresentation.from_orbits(dd, seeds)
            lhs = local_rfactor(p, tensor_with_projection(tau))
            rhs = local_rfactor(p, tau)
            assert sorted(lhs.inverse_roots) == sorted(c * q for c in rhs.inverse_roots)
            s = 2.5
            assert lhs.evaluate(s) == pytest.approx(rhs.evaluate(s - 1.0))


class TestEulerProducts:
    def test_empty_product(self):
        assert partial_rfunction((), DualRepresentation.trivial(DD_TRIVIAL), 2.0) == 1.0

    def test_single_place(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        tau = DualRepresentation.trivial(DD_TRIVIAL)
        assert partial_rfunction(((Fraction(2), p),), tau, 1.0) == pytest.approx(2.0)

    def test_zeta_two(self):
        tau = DualRepresentation.trivial(DD_TRIVIAL)
        places = tuple((Fraction(p), make_parameter(DD_TRIVIAL, p, ()))
                       for p in primes_below(100))
        value = partial_rfunction(places, tau, 2.0)
        assert abs(value - math.pi ** 2 / 6) < 0.01

    def test_primes_below_is_trial_division(self):
        # 0, 1, 2, squares and prime squares, where a sieve that flips its
        # flags would be off by one
        primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
        for n in range(301):
            assert primes_below(n) == tuple(p for p in primes if p < n), n

    def test_mismatched_place(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        tau = DualRepresentation.trivial(DD_TRIVIAL)
        with pytest.raises(ValidationError):
            partial_rfunction(((Fraction(3), p),), tau, 2.0)

    @pytest.mark.parametrize("bad", ["2", 2.0, True])
    def test_place_q_is_read_exactly(self, bad):
        p = make_parameter(DD_TRIVIAL, 2, ())
        tau = DualRepresentation.trivial(DD_TRIVIAL)
        with pytest.raises(ValidationError, match="expected a Fraction or an int"):
            partial_rfunction(((bad, p),), tau, 2.0)
        assert partial_rfunction(((2, p),), tau, 2.0) == partial_rfunction(
            ((Fraction(2), p),), tau, 2.0)

    def test_pole_names_place(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        tau = DualRepresentation.trivial(DD_TRIVIAL)
        with pytest.raises(PoleError, match="q = 2"):
            partial_rfunction(((Fraction(2), p),), tau, 0.0)


class TestSplitting:
    def test_delta_becomes_one(self):
        p = make_parameter(DD_PGL2, 9, (Fraction(2),))
        split = split_by_sqrt(p, Fraction(3))
        assert split.delta_value() == 1

    def test_pgl2_example(self):
        # values(mu) = 2, q = 9: the lifted weight (mu, 1) carries 18,
        # and splitting by sqrt(9) = 3 rescales it to 6
        p = make_parameter(DD_PGL2, 9, (Fraction(2),))
        assert p.value_at((1, 1)) == 18
        split = split_by_sqrt(p, Fraction(3))
        assert split.value_at((1, 1)) == 6

    def test_delta_value_is_cross_checked(self):
        # a j whose delta entry is not 2 leaves delta value q^-1 after the
        # split, which trips the check, also under -O
        dd = DD_PGL2
        wrong = LanglandsDualData(dd.base, dd.ext, dd.r, dd.t, dd.j[:-1] + (4,), dd.i, dd.p,
                                  dd.epsilon_order)
        p = make_parameter(wrong, 9, (Fraction(2),))
        with pytest.raises(RuntimeError, match="^internal: split assignment has delta value 1/9"):
            split_by_sqrt(p, Fraction(3))

    def test_wrong_root_rejected(self):
        p = make_parameter(DD_PGL2, 9, (Fraction(2),))
        with pytest.raises(ValidationError):
            split_by_sqrt(p, Fraction(2))

    def test_square_check_is_the_product(self):
        """split_by_sqrt refuses a root exactly when sq * sq != q, with the
        same message: rational roots, and QuadExt roots with a zero, a
        nonzero or a negative part, a radicand that is a square, not q, or
        0, for square, non-square, fractional and negative q."""
        rng = random.Random(13)
        parts = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3))
        outcomes = set()
        for q in (Fraction(9), Fraction(2), Fraction(7), Fraction(9, 4), Fraction(3, 2),
                  Fraction(-3)):
            x = UnramifiedParameter(DD_PGL2, (Fraction(2), q), q)
            roots = [sqrt_of(abs(q)), -sqrt_of(abs(q)), Fraction(3), -3, Fraction(3, 2)]
            for _ in range(60):
                a, b = rng.choice(parts), rng.choice(parts)
                rad = rng.choice((q, 4 * q, q / 4, q / b ** 2 if b else q, Fraction(9),
                                  Fraction(4), Fraction(2), Fraction(0), Fraction(-3)))
                roots += [QuadExt(a, b, rad), QuadExt(0, b, rad), QuadExt(a, 0, rad)]
            for sq in roots:
                square = sq * sq
                refused = square != q
                outcomes.add(refused)
                if refused:
                    with pytest.raises(ValidationError) as caught:
                        split_by_sqrt(x, sq)
                    assert str(caught.value) == f"square root check failed: ({sq})^2 != {q}"
                else:
                    assert split_by_sqrt(x, sq).delta_value() == 1
        assert outcomes == {True, False}

    def test_epsilon_twist_involution(self):
        p = make_parameter(DD_PGL2, 4, (Fraction(7),))
        assert epsilon_twist(epsilon_twist(p)) == p

    def test_epsilon_twist_flips_first_value(self):
        # t = (1, 0): only the first basis value changes sign
        p = make_parameter(DD_PGL2, 4, (Fraction(7),))
        twisted = epsilon_twist(p)
        assert twisted.values == (Fraction(-7), Fraction(4))

    def test_root_choice_differs_by_parity_twist(self):
        rng = random.Random(5)
        root = sqrt_of(Fraction(2))
        for _ in range(50):
            a = QuadExt(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)), Fraction(2))
            if not a:
                continue
            p = make_parameter(DD_PGL2, 2, (a,))
            assert split_by_sqrt(p, -root) == epsilon_twist(split_by_sqrt(p, root))

    def test_sl2_twist_acts_trivially_on_even_pairings(self):
        # when t is even, the twist leaves every value unchanged
        dd = langlands_dual_data(BUILTINS["SL2"])
        p = make_parameter(dd, 4, (Fraction(3),))
        assert epsilon_twist(p) == p

    def test_galois_equivariance_with_root_in_data(self):
        rng = random.Random(6)
        root = sqrt_of(Fraction(2))
        for _ in range(20):
            a = QuadExt(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)), Fraction(2))
            if not a:
                continue
            p = make_parameter(DD_PGL2, 2, (a,))
            lhs = split_by_sqrt(p, root).conjugate()
            rhs = split_by_sqrt(p.conjugate(), field_conjugate(root))
            assert lhs == rhs

    @pytest.mark.parametrize("datum", SPLIT_DATA, ids=lambda d: d.name)
    def test_split_is_the_definition(self, datum, monkeypatch):
        """Each value is v * sq^-j_k, equal in value, type, str and hash, for
        both roots of square, non-square and fractional q; past its check a
        split raises a QuadExt to no power but 0."""
        power = QuadExt.__pow__
        exponents = []

        def spy(self, exp):
            exponents.append(exp)
            return power(self, exp)

        dd = langlands_dual_data(datum)
        rng = random.Random(8)
        for q in (Fraction(9), Fraction(2), Fraction(9, 4), Fraction(3, 2)):
            # the generator of Q(sqrt q), also where q is a square
            gen = QuadExt(Fraction(0), Fraction(1), q)
            rational = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(dd.base.rank))
            quadratic = tuple(rng.randint(1, 5) + Fraction(rng.randint(-5, 5), 3) * gen
                              for _ in range(dd.base.rank))
            for base_values in (rational, quadratic):
                x = make_parameter(dd, q, base_values)
                for root in (sqrt_of(q), -sqrt_of(q), gen, -gen):
                    expected = tuple(v * root ** (-jk) for jk, v in zip(dd.j, x.values))
                    monkeypatch.setattr(QuadExt, "__pow__", spy)
                    got = split_by_sqrt(x, root).values
                    monkeypatch.setattr(QuadExt, "__pow__", power)
                    assert got == expected
                    assert [type(v) for v in got] == [type(v) for v in expected]
                    assert [str(v) for v in got] == [str(v) for v in expected]
                    assert [hash(v) for v in got] == [hash(v) for v in expected]
        assert set(exponents) <= {0}

    @pytest.mark.parametrize("datum", SPLIT_DATA, ids=lambda d: d.name)
    def test_value_at_is_the_definition(self, datum):
        """value_at is the loop out = out * v ** e from Fraction(1), equal in
        value, type, str and hash, on rational values, on Q(sqrt q) values
        with a rational delta value, and on their splits; a zero divisor
        (square q) raises ZeroDivisionError on both sides."""
        def by_loop(values, y):
            out = Fraction(1)
            for v, e in zip(values, y):
                if e:
                    out = out * v ** e
            return out

        dd = langlands_dual_data(datum)
        rng = random.Random(9)
        for q in (Fraction(9), Fraction(2), Fraction(9, 4), Fraction(3, 2)):
            gen = QuadExt(Fraction(0), Fraction(1), q)
            rational = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(dd.base.rank))
            quadratic = tuple(rng.randint(1, 5) + Fraction(rng.randint(-5, 5), 3) * gen
                              for _ in range(dd.base.rank))
            for base_values in (rational, quadratic):
                x = make_parameter(dd, q, base_values)
                for a in (x, split_by_sqrt(x, gen), split_by_sqrt(x, -sqrt_of(q))):
                    for _ in range(12):
                        y = tuple(rng.randint(-4, 4) for _ in range(dd.ext.rank))
                        try:
                            expected = by_loop(a.values, y)
                        except ZeroDivisionError:
                            with pytest.raises(ZeroDivisionError):
                                a.value_at(y)
                            continue
                        got = a.value_at(y)
                        assert got == expected
                        assert type(got) is type(expected)
                        assert (str(got), hash(got)) == (str(expected), hash(expected))

    def test_results_are_built_unchecked(self, monkeypatch):
        """Past their own checks, the splitting, the twist, conjugation,
        value_at and QuadExt arithmetic call no checked constructor."""
        dd = langlands_dual_data(BUILTINS["SO5"])
        gen = sqrt_of(Fraction(7))
        x = make_parameter(dd, 7, (Fraction(2, 3), 1 - gen))
        checked = []
        for cls in (QuadExt, TorusAssignment, UnramifiedParameter):
            monkeypatch.setattr(cls, "__init__", lambda self, *args, cls=cls: checked.append(cls))
        split = split_by_sqrt(x, -gen)
        for a in (x, split):
            epsilon_twist(a).conjugate().value_at((1, -2, 3))
        (gen + 1) * (gen - 2) ** -3 - gen.inverse()
        assert checked == []
        assert type(epsilon_twist(x)) is UnramifiedParameter and epsilon_twist(x).q == x.q
        assert type(x.conjugate()) is UnramifiedParameter and x.conjugate().q == x.q

    def test_int_root_splits_exactly(self):
        # int ** -n is a float, so the closed form must not raise sq itself
        dd = langlands_dual_data(BUILTINS["SO5"])
        x = make_parameter(dd, 49, (Fraction(2), Fraction(-3, 5)))
        got = split_by_sqrt(x, -7).values
        assert got == split_by_sqrt(x, Fraction(-7)).values
        assert all(type(v) is Fraction for v in got)

    @pytest.mark.parametrize("name", ["PGL2", "Sp4"])
    def test_split_refuses_a_value_from_another_extension(self, name):
        # PGL2 has an odd j, Sp4 an all-even one; a value in Q(sqrt 2) with
        # q = 3 is refused either way
        dd = langlands_dual_data(BUILTINS[name])
        x = make_parameter(dd, 3, (QuadExt(Fraction(1), Fraction(1), Fraction(2)),) * dd.base.rank)
        for root in (sqrt_of(Fraction(3)), -sqrt_of(Fraction(3))):
            with pytest.raises(ValidationError, match="^mixing different quadratic extensions$"):
                split_by_sqrt(x, root)

    def test_galois_failure_without_root(self):
        # with rational input data, conjugating the output of a fixed-root
        # splitting exposes the parity twist instead of the identity
        root = sqrt_of(Fraction(2))
        p = make_parameter(DD_PGL2, 2, (Fraction(3),))
        split = split_by_sqrt(p, root)
        assert split.conjugate() != split
        assert split.conjugate() == epsilon_twist(split)


# ---------------------------------------------------------------------------
# the contract of the five records, as for the datum-path records in
# test_package.py

GEN3 = sqrt_of(Fraction(3))
TRIVIAL_DD_REPR = (
    "LanglandsDualData(base=RootDatum(rank=0, simple_roots=(), simple_coroots=(), name='trivial'),"
    " ext=RootDatum(rank=1, simple_roots=(), simple_coroots=(), name='trivial~'), r=(1,), t=(0,),"
    " j=(2,), i=(1,), p=(1,), epsilon_order=1)")
GEN3_REPR = "QuadExt(a=Fraction(0, 1), b=Fraction(1, 1), rad=Fraction(3, 1))"
# each record, its keyword construction and its repr, captured when the
# records were dataclasses
RECORDS = [
    (QuadExt(1, Fraction(-2, 3), 7),
     lambda: QuadExt(rad=7, b=Fraction(-2, 3), a=1),
     "QuadExt(a=Fraction(1, 1), b=Fraction(-2, 3), rad=Fraction(7, 1))"),
    (TorusAssignment(DD_TRIVIAL, (GEN3,)),
     lambda: TorusAssignment(values=[GEN3], dd=DD_TRIVIAL),
     f"TorusAssignment(dd={TRIVIAL_DD_REPR}, values=({GEN3_REPR},))"),
    (UnramifiedParameter(DD_TRIVIAL, (3,), 3),
     lambda: UnramifiedParameter(q=Fraction(3), values=[Fraction(3)], dd=DD_TRIVIAL),
     f"UnramifiedParameter(dd={TRIVIAL_DD_REPR}, values=(Fraction(3, 1),), q=Fraction(3, 1))"),
    (DualRepresentation.trivial(DD_TRIVIAL),
     lambda: DualRepresentation(weights=[[0]], dd=DD_TRIVIAL),
     f"DualRepresentation(dd={TRIVIAL_DD_REPR}, weights=((0,),))"),
    (RFactor(3, (2, GEN3)),
     lambda: RFactor(inverse_roots=[Fraction(2), GEN3], q=Fraction(3)),
     f"RFactor(q=Fraction(3, 1), inverse_roots=(Fraction(2, 1), {GEN3_REPR}))"),
]
RECORD_IDS = [type(record).__name__ for record, _, _ in RECORDS]
FIELDS = {QuadExt: ("a", "b", "rad"), TorusAssignment: ("dd", "values"),
          UnramifiedParameter: ("dd", "values", "q"), DualRepresentation: ("dd", "weights"),
          RFactor: ("q", "inverse_roots")}


def field_tuple(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("record, by_keyword, text", RECORDS, ids=RECORD_IDS)
class TestRecords:
    def test_repr(self, record, by_keyword, text):
        assert repr(record) == text

    def test_keyword_construction_is_equal_with_equal_hash(self, record, by_keyword, text):
        other = by_keyword()
        assert other is not record
        assert other == record and hash(other) == hash(record)
        assert not other != record

    def test_hash_is_that_of_the_fields(self, record, by_keyword, text):
        assert hash(record) == hash(field_tuple(record))

    @pytest.mark.parametrize("field", ["a", "dd", "values", "q", "weights", "extra"])
    def test_immutable(self, record, by_keyword, text, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == text

    def test_pickle_and_copy_round_trip(self, record, by_keyword, text):
        for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                      copy.copy(record)):
            assert type(other) is type(record)
            assert other == record and hash(other) == hash(record)
            assert repr(other) == text


def test_records_of_different_classes_differ():
    values = (Fraction(3),)
    assignment = TorusAssignment(DD_TRIVIAL, values)
    parameter = UnramifiedParameter(DD_TRIVIAL, values, 3)
    assert assignment != parameter and parameter != assignment
    assert not assignment == parameter
    assert assignment == TorusAssignment(DD_TRIVIAL, parameter.values)


def test_a_derived_record_hashes_its_own_fields():
    # the kept hash of a record must not pass to the records built from it
    x = make_parameter(DD_PGL2, 7, (Fraction(2),))
    hash(x)
    split = split_by_sqrt(x, sqrt_of(Fraction(7)))
    hash(split)
    for derived in (x.conjugate(), epsilon_twist(x), epsilon_twist(split), split.conjugate()):
        assert hash(derived) == hash(field_tuple(derived))


def test_quad_ext_equals_its_rational_value():
    rational = QuadExt(Fraction(5, 2), 0, 3)
    assert rational == Fraction(5, 2) and Fraction(5, 2) == rational
    assert hash(rational) == hash(Fraction(5, 2))
    assert QuadExt(2, 0, 7) == 2 and hash(QuadExt(2, 0, 7)) == hash(2)
    assert GEN3 != QuadExt(0, 1, 2) and GEN3 != 3


@pytest.mark.parametrize("call, message", [
    (lambda: local_rfactor(make_parameter(DD_PGL2, 3, (2,)), DualRepresentation.trivial(DD_TRIVIAL)),
     "parameter and representation use different dual data"),
    (lambda: make_parameter(DD_PGL2, 3, (2, 2)), "expected one value per base coweight basis vector"),
    (lambda: TorusAssignment(DD_PGL2, (2,)), "assignment needs one value per extended basis vector"),
    (lambda: DualRepresentation(DD_PGL2, ((1,),)), "weight (1,) has wrong rank"),
    (lambda: sqrt_of(0), "square roots only of positive values"),
    (lambda: sqrt_of(Fraction(-4)), "square roots only of positive values"),
], ids=["rfactor-of-other-dual-data", "parameter-values", "assignment-length", "weight-rank",
        "sqrt-of-0", "sqrt-of-negative"])
def test_refusals(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError and str(info.value) == message
