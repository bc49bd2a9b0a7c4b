"""Tests for parameters, local factors, the splitting and the sign twist."""

import math
import random
from fractions import Fraction

import pytest

from heckedual.dualdata import langlands_dual_data
from heckedual.errors import OmegaViolationError, PoleError, ValidationError
from heckedual.rootdatum import BUILTINS, TRIVIAL
from heckedual.rfunc import (
    DualRepresentation,
    QuadExt,
    RFactor,
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

    def test_sqrt_of(self):
        assert sqrt_of(Fraction(9)) == 3
        assert sqrt_of(Fraction(9, 4)) == Fraction(3, 2)
        root = sqrt_of(Fraction(2))
        assert isinstance(root, QuadExt)
        assert root * root == 2


class TestParameters:
    def test_construction(self):
        p = make_parameter(DD_PGL2, 3, (Fraction(2),))
        assert p.delta_value() == 3
        assert p.value_at((1, 1)) == 6

    def test_omega_violation(self):
        with pytest.raises(OmegaViolationError):
            make_parameter(DD_PGL2, 3, (Fraction(2),), delta_value=1)

    def test_zero_value_rejected(self):
        with pytest.raises(ValidationError):
            make_parameter(DD_PGL2, 3, (Fraction(0),))

    def test_direct_construction_checks_delta(self):
        with pytest.raises(OmegaViolationError):
            UnramifiedParameter(DD_PGL2, (Fraction(2), Fraction(5)), Fraction(3))

    def test_q_is_required(self):
        with pytest.raises(TypeError):
            UnramifiedParameter(DD_PGL2, (Fraction(2), Fraction(2)))

    def test_trivial_datum(self):
        p = make_parameter(DD_TRIVIAL, 4, ())
        assert p.values == (Fraction(4),)


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


class TestLocalFactors:
    def test_trivial_rep_zeta_factor(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        factor = local_rfactor(p, DualRepresentation.trivial(DD_TRIVIAL))
        assert factor.inverse_roots == (Fraction(1),)
        assert factor.evaluate(1.0) == pytest.approx(2.0)

    def test_projection_rep(self):
        p = make_parameter(DD_PGL2, 3, (Fraction(2),))
        factor = local_rfactor(p, DualRepresentation.projection_character(DD_PGL2))
        assert factor.inverse_roots == (Fraction(3),)
        # (1 - q^(1-s))^-1 at s = 2 is (1 - 1/3)^-1
        assert factor.evaluate(2.0) == pytest.approx(1.5)

    def test_pgl2_standard_roots(self):
        a = Fraction(5)
        p = make_parameter(DD_PGL2, 3, (a,))
        tau = DualRepresentation(DD_PGL2, ((1, 1), (-1, 0)))
        factor = local_rfactor(p, tau)
        assert sorted(factor.inverse_roots) == sorted((a * 3, 1 / a))

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
            assert local_rfactor(p, tau).degree == tau.dimension

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
            assert sorted(lhs.inverse_roots) == sorted(rhs.shifted(1).inverse_roots)
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

    def test_mismatched_place(self):
        p = make_parameter(DD_TRIVIAL, 2, ())
        tau = DualRepresentation.trivial(DD_TRIVIAL)
        with pytest.raises(ValidationError):
            partial_rfunction(((Fraction(3), p),), tau, 2.0)

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

    def test_wrong_root_rejected(self):
        p = make_parameter(DD_PGL2, 9, (Fraction(2),))
        with pytest.raises(ValidationError):
            split_by_sqrt(p, Fraction(2))

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

    def test_galois_failure_without_root(self):
        # with rational input data, conjugating the output of a fixed-root
        # splitting exposes the parity twist instead of the identity
        root = sqrt_of(Fraction(2))
        p = make_parameter(DD_PGL2, 2, (Fraction(3),))
        split = split_by_sqrt(p, root)
        assert split.conjugate() != split
        assert split.conjugate() == epsilon_twist(split)
