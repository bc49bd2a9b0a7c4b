"""The Hecke side meets the R-factor side in type A.

Evaluate the images S(k lambda) at an unramified parameter x: ev(k) is the
sum of c_y(q) x(y) over the terms c_y e^y of the extended image, before the
delta coordinate is restricted.  For V the representation with the Weyl
orbit of (lambda, 0) as its weights and L(X) = prod 1 / (1 - c X) over the
inverse roots c of the local factor of x at V,

    sum_k ev(k) X^k = 1 + (L(X) / L(X/q) - 1) / (1 - q^-1)

holds exactly in Q, with no square root of q (Macdonald, Symmetric
Functions and Hall Polynomials, III (2.10): sum_r q_r X^r = prod (1 - t x_i
X) / (1 - x_i X) with q_r = (1 - t) P_(r), at t = q^-1).  The rho-shift
sits in the delta coordinate of V's weights.  It is pinned here only where
it holds: lambda = e_1 or -e_n for GL_n, and the fundamental coweights of
PGL2 and PGL3.  It fails on GL4 at e_1 + e_2 and on Sp4 at (1,0).
"""

import random
from fractions import Fraction

import pytest

from heckedual.dualdata import langlands_dual_data
from heckedual.rfunc import DualRepresentation, local_rfactor, make_parameter
from heckedual.rootdatum import BUILTINS, RootDatum
from heckedual.satake import lift_exponent, satake_image_extended

DEGREE = 6


def gl(n):
    roots = tuple(tuple(1 if c == i else -1 if c == i + 1 else 0 for c in range(n))
                  for i in range(n - 1))
    return RootDatum(n, roots, roots, f"GL{n}")


def series_mul(a, b):
    """Product of two power series in X, truncated at X^DEGREE."""
    out = [Fraction(0)] * (DEGREE + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:DEGREE + 1 - i]):
            out[i + j] += x * y
    return out


def hecke_side(dd, lam, x):
    """[ev(0), ..., ev(DEGREE)], each image evaluated at q and at x."""
    return [sum((c.evaluate(x.q) * x.value_at(y)
                 for y, c in satake_image_extended(dd, tuple(k * a for a in lam)).items()),
                Fraction(0))
            for k in range(DEGREE + 1)]


def rfactor_side(dd, lam, x):
    """The coefficients of 1 + (L(X) / L(X/q) - 1) / (1 - q^-1) through
    X^DEGREE, with L(X) / L(X/q) = prod (1 - c X / q) / (1 - c X)."""
    tau = DualRepresentation.from_orbits(dd, [lift_exponent(lam, 0)])
    ratio = [Fraction(1)] + [Fraction(0)] * DEGREE
    for c in local_rfactor(x, tau).inverse_roots:
        geometric = [c ** j for j in range(DEGREE + 1)]
        ratio = series_mul(series_mul(ratio, geometric), [Fraction(1), -c / x.q])
    return [Fraction(1)] + [r / (1 - 1 / x.q) for r in ratio[1:]]


CASES = [
    (BUILTINS["GL2"], (1, 0)),
    (BUILTINS["GL3"], (1, 0, 0)),
    (BUILTINS["GL3"], (0, 0, -1)),
    (gl(4), (1, 0, 0, 0)),
    (gl(5), (1, 0, 0, 0, 0)),
    (BUILTINS["PGL2"], (1,)),
    (BUILTINS["PGL3"], (1, 0)),
    (BUILTINS["PGL3"], (0, 1)),
]


@pytest.mark.parametrize("datum, lam", CASES, ids=lambda v: getattr(v, "name", None) or str(v))
@pytest.mark.parametrize("q", [Fraction(5), Fraction(9, 4)], ids=str)
def test_images_at_a_parameter_match_the_local_factor(datum, lam, q):
    dd = langlands_dual_data(datum)
    rng = random.Random(f"{datum.name} {lam} {q}")
    for _ in range(3):
        values = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                       for _ in range(datum.rank))
        x = make_parameter(dd, q, values)
        assert hecke_side(dd, lam, x) == rfactor_side(dd, lam, x), values
