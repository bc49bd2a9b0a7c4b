"""Unramified parameters, local R-factors and the square-root splitting.

A parameter is a multiplicative assignment on the extended coweight basis
whose value at the delta coordinate equals the residue cardinality q; that
equality is the modulus condition and is enforced at construction.  Local
factors of a representation of the dual-side group (given by its weight
multiset) are products (1 - c_i q^-s)^-1 over the parameter values at the
weights.  Everything stays in exact coefficient fields, either the
rationals or the quadratic extension generated by a square root of q,
until the final numeric evaluation of an Euler product; the sign
phenomena are exact statements that floats would mask.

Choosing a square root of q trivializes the delta value and produces a
classical assignment; the two choices of root differ exactly by the
parity twist attached to the sum of positive roots, so the sign carried
by the square-root choice is pinned down exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence, Union

from .dualdata import LanglandsDualData
from .errors import OmegaViolationError, PoleError, RankMismatchError, ValidationError
from .lattice import Vec, as_fraction, fraction_monomial, int_vector, reflect
from .rootdatum import FrozenRecord, orbit_walk

# ---------------------------------------------------------------------------
# the quadratic coefficient field Q(sqrt(rad))

_ZERO, _ONE = Fraction(0), Fraction(1)


class QuadExt(FrozenRecord):
    """a + b*sqrt(rad) with exact rational a, b and a fixed radicand.

    The constructor reads a, b and rad by ``as_fraction``; every arithmetic
    result is built by the unchecked ``_make`` from Fractions it computed.
    Equality and the hash are its own: a rational element equals its
    Fraction."""

    _fields = ("a", "b", "rad")

    def __init__(self, a: Fraction, b: Fraction, rad: Fraction):
        object.__setattr__(self, "a", as_fraction(a))
        object.__setattr__(self, "b", as_fraction(b))
        object.__setattr__(self, "rad", as_fraction(rad))

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, rad: Fraction) -> "QuadExt":
        # trusted constructor: a, b and rad are Fractions
        self = object.__new__(cls)
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["rad"] = rad
        return self

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.rad != self.rad:
                raise ValidationError("mixing different quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt._make(Fraction(other), _ZERO, self.rad)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt._make(self.a + other.a, self.b + other.b, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt._make(self.a - other.a, self.b - other.b, self.rad)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadExt._make(-self.a, -self.b, self.rad)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt._make(self.a * other, self.b * other, self.rad)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt._make(self.a * other.a + self.b * other.b * self.rad,
                             self.a * other.b + self.b * other.a, self.rad)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.rad
        if norm == 0:
            raise ZeroDivisionError("inverse of zero (or of a zero divisor)")
        return QuadExt._make(self.a / norm, -self.b / norm, self.rad)

    def __pow__(self, exp: int) -> "QuadExt":
        if exp < 0:
            return self.inverse() ** (-exp)
        out = QuadExt._make(_ONE, _ZERO, self.rad)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            exp >>= 1
            if exp:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.rad == other.rad and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def __bool__(self):
        return bool(self.a or self.b)

    def conjugate(self) -> "QuadExt":
        """The field automorphism sending sqrt(rad) to -sqrt(rad)."""
        return QuadExt._make(self.a, -self.b, self.rad)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.rad))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.rad})"
        if self.b == 1:
            tail = root
        elif self.b == -1:
            tail = f"-{root}"
        else:
            tail = f"{self.b}*{root}"
        if self.a == 0:
            return tail
        sign = "-" if self.b < 0 else "+"
        mag = tail.lstrip("-")
        return f"{self.a} {sign} {mag}"


FieldElement = Union[Fraction, QuadExt]


def field_conjugate(x: FieldElement) -> FieldElement:
    return x.conjugate() if isinstance(x, QuadExt) else x


def sqrt_of(q: Fraction) -> FieldElement:
    """A square root of q: rational when q is a perfect square, otherwise
    the generator of the quadratic extension Q(sqrt(q)).  q is read by
    ``as_fraction``."""
    q = as_fraction(q)
    if q <= 0:
        raise ValidationError("square roots only of positive values")
    num_root = math.isqrt(q.numerator)
    den_root = math.isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return Fraction(num_root, den_root)
    return QuadExt._make(_ZERO, _ONE, q)


# ---------------------------------------------------------------------------
# parameters and assignments on the extended coweight lattice


class TorusAssignment(FrozenRecord):
    """A multiplicative assignment on the extended coweight basis.

    The constructor reads every value that is not a ``QuadExt`` by
    ``as_fraction``; the splitting, the twist and conjugation build their
    results from checked values by the unchecked ``_make``."""

    _fields = ("dd", "values")
    _noun = "assignment"

    def __init__(self, dd: LanglandsDualData, values: Sequence[FieldElement]):
        values = tuple(v if isinstance(v, QuadExt) else as_fraction(v) for v in values)
        if len(values) != dd.ext.rank:
            raise ValidationError(f"{self._noun} needs one value per extended basis vector")
        if not all(values):
            raise ValidationError(f"{self._noun} values must be nonzero")
        object.__setattr__(self, "dd", dd)
        object.__setattr__(self, "values", values)

    @classmethod
    def _make(cls, dd: LanglandsDualData, values: tuple) -> "TorusAssignment":
        # trusted constructor: one nonzero Fraction or QuadExt per extended
        # basis vector
        self = object.__new__(cls)
        fields = self.__dict__
        fields["dd"] = dd
        fields["values"] = values
        return self

    def _revalued(self, values: tuple) -> "TorusAssignment":
        # the same class and other fields; trusted like _make
        return self._make(self.dd, values)

    def value_at(self, ytilde: Sequence[int]) -> FieldElement:
        """prod v_k^(y_k): the rational values as one ``fraction_monomial``,
        then each QuadExt power, so the result is a QuadExt exactly when a
        QuadExt value has a nonzero exponent."""
        ytilde = int_vector(ytilde)
        if len(ytilde) != len(self.values):
            raise RankMismatchError(f"value at a rank-{len(ytilde)} vector, not rank {len(self.values)}")
        return self._values_at((ytilde,))[0]

    def _values_at(self, rows: Sequence[Vec]) -> list[FieldElement]:
        # value_at at each checked row of the right rank, reading the
        # rational values' pairs once
        pairs = [(1, 1) if isinstance(v, QuadExt) else (v.numerator, v.denominator)
                 for v in self.values]
        out: list[FieldElement] = [fraction_monomial(pairs, y) for y in rows]
        for k, v in enumerate(self.values):
            if isinstance(v, QuadExt):
                out = [v ** y[k] * c if y[k] else c for y, c in zip(rows, out)]
        return out

    def delta_value(self) -> FieldElement:
        return self.values[self.dd.delta_index]

    def conjugate(self) -> "TorusAssignment":
        return self._revalued(tuple(field_conjugate(v) for v in self.values))


class UnramifiedParameter(TorusAssignment):
    """A torus assignment satisfying the modulus condition at delta; q is
    read by ``as_fraction``."""

    _fields = ("dd", "values", "q")
    _noun = "parameter"

    def __init__(self, dd: LanglandsDualData, values: Sequence[FieldElement], q: Fraction):
        q = as_fraction(q)
        super().__init__(dd, values)
        if self.values[dd.delta_index] != q:
            raise OmegaViolationError(
                f"(omega) violated: delta value {self.values[dd.delta_index]} differs from q = {q}")
        object.__setattr__(self, "q", q)

    def _revalued(self, values: tuple) -> "UnramifiedParameter":
        # the twist and conjugation keep the delta value, so q
        out = super()._revalued(values)
        out.__dict__["q"] = self.q
        return out


def make_parameter(dd: LanglandsDualData, q, base_values: Sequence[FieldElement]) -> UnramifiedParameter:
    """Build a parameter from values on the base coweight basis; the delta
    value is q, as the modulus condition asks.  q and every value that is
    not a ``QuadExt`` are read by ``as_fraction``, so the layer stays exact."""
    q = as_fraction(q)
    if q <= 1:
        raise ValidationError(f"residue cardinality q = {q} must exceed 1")
    if len(base_values) != dd.base.rank:
        raise ValidationError("expected one value per base coweight basis vector")
    return UnramifiedParameter(dd, (*base_values, q), q)


# ---------------------------------------------------------------------------
# representations of the dual-side group, by weight multiset


class DualRepresentation(FrozenRecord):
    """A finite weight multiset in the extended coweight lattice, stable
    under the extended Weyl action."""

    _fields = ("dd", "weights")

    def __init__(self, dd: LanglandsDualData, weights: Sequence[Sequence[int]]):
        weights = tuple(sorted(map(int_vector, weights)))
        ext = dd.ext
        for w in weights:
            if len(w) != ext.rank:
                raise ValidationError(f"weight {w} has wrong rank")
        # stable under every simple reflection, which generate the group
        counter = Counter(weights)
        if not all(Counter(reflect(wt, alpha, alphavee) for wt in weights) == counter
                   for alpha, alphavee in zip(ext.simple_roots, ext.simple_coroots)):
            raise ValidationError("weight multiset is not Weyl stable")
        object.__setattr__(self, "dd", dd)
        object.__setattr__(self, "weights", weights)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @classmethod
    def trivial(cls, dd: LanglandsDualData) -> "DualRepresentation":
        return cls(dd, ((0,) * dd.ext.rank,))

    @classmethod
    def from_orbits(cls, dd: LanglandsDualData, seeds: Sequence[Sequence[int]]) -> "DualRepresentation":
        """The union of the seeds' Weyl orbits, each walked by ``orbit_walk``."""
        weights: list[Vec] = []
        for seed in map(int_vector, seeds):
            weights += sorted([seed, *(nu for _, _, nu in orbit_walk(dd.ext, seed))])
        return cls(dd, tuple(weights))


def tensor_with_projection(tau: DualRepresentation) -> DualRepresentation:
    """Tensor by the delta character: shift every weight by delta."""
    delta = tau.dd.i
    return DualRepresentation(tau.dd, tuple(
        tuple(a + b for a, b in zip(wt, delta)) for wt in tau.weights))


def contragredient_rep(dd: LanglandsDualData, tau: DualRepresentation) -> DualRepresentation:
    """The twisted dual: weights delta - w.  An involution, since delta is
    Weyl fixed.  tau must be a representation of dd's group."""
    if tau.dd is not dd and tau.dd != dd:
        raise ValidationError("representation and target use different dual data")
    delta = dd.i
    return DualRepresentation(dd, tuple(
        tuple(a - b for a, b in zip(delta, wt)) for wt in tau.weights))


# ---------------------------------------------------------------------------
# local factors and partial products


_POLE_TOLERANCE = 1e-9


class RFactor(FrozenRecord):
    """A local factor prod (1 - c_i u)^-1 in u = q^-s, by its inverse
    roots.  The number of inverse roots is the dimension of the
    representation.

    The constructor reads q by ``as_fraction`` and each inverse root as a
    ``QuadExt`` or by ``as_fraction``; ``local_rfactor`` builds through the
    unchecked ``_make`` from a checked parameter's values."""

    _fields = ("q", "inverse_roots")

    def __init__(self, q: Fraction, inverse_roots: Sequence[FieldElement]):
        object.__setattr__(self, "q", as_fraction(q))
        object.__setattr__(self, "inverse_roots", tuple(
            c if isinstance(c, QuadExt) else as_fraction(c) for c in inverse_roots))

    @classmethod
    def _make(cls, q: Fraction, inverse_roots: tuple[FieldElement, ...]) -> "RFactor":
        # trusted constructor: a Fraction q and Fraction or QuadExt roots
        self = object.__new__(cls)
        fields = self.__dict__
        fields["q"] = q
        fields["inverse_roots"] = inverse_roots
        return self

    def evaluate(self, s: float) -> float:
        """The value at s, in floats; a pole raises PoleError.

        Whether 1 - c*q^-s vanishes is decided exactly, and only where its
        float is within a relative tolerance of zero (both terms are then
        near 1).  With s = a/b in lowest terms, c*q^-s = 1 forces c^b = q^a,
        tested in the exact field of c; a real c close to q^s > 0 with
        c^b = q^a is q^s.  Past b = 64 the tolerance alone decides.  A
        non-finite s raises ValidationError.
        """
        if not math.isfinite(s):
            raise ValidationError(f"s must be finite, got {s}")
        value = 1.0
        u = float(self.q) ** (-s)
        for c in self.inverse_roots:
            denom = 1.0 - float(c) * u
            if abs(denom) <= _POLE_TOLERANCE:
                a, b = Fraction(s).as_integer_ratio()
                if b > 64 or c ** b == Fraction(self.q) ** a:
                    raise PoleError(f"local factor has a pole at s = {s} (root {c}, q = {self.q})")
            value /= denom
        return value

    def __str__(self):
        if not self.inverse_roots:
            return "1"
        return " * ".join(f"(1 - ({c})*u)^-1" for c in self.inverse_roots)


def local_rfactor(x: UnramifiedParameter, tau: DualRepresentation) -> RFactor:
    """Inverse roots are the parameter values at the weights of tau, which
    tau read as ints of the extended rank: in one pass, x's rational values
    read once as (numerator, denominator) pairs, one ``fraction_monomial``
    per weight, then each ``QuadExt`` power, exactly as ``value_at``."""
    if tau.dd is not x.dd and tau.dd != x.dd:
        raise ValidationError("parameter and representation use different dual data")
    return RFactor._make(x.q, tuple(x._values_at(tau.weights)))


def partial_rfunction(places: Sequence[tuple[Fraction, UnramifiedParameter]],
                      tau: DualRepresentation, s: float) -> float:
    """Finite product of local factor values, accumulated left to right.

    Each place's q is read by ``as_fraction`` and must be its parameter's.
    A pole at any place is reported with the offending residue cardinality
    rather than propagating a bare division error.
    """
    value = 1.0
    for q_v, param in places:
        q_v = as_fraction(q_v)
        if q_v != param.q:
            raise ValidationError(f"place lists q = {q_v} but its parameter has q = {param.q}")
        try:
            value *= local_rfactor(param, tau).evaluate(s)
        except PoleError as exc:
            raise PoleError(f"pole at the place with q = {q_v}: {exc}") from None
    return value


# ---------------------------------------------------------------------------
# the square-root splitting and its sign twist


def split_by_sqrt(x: UnramifiedParameter, sq: FieldElement) -> TorusAssignment:
    """Divide out the chosen square root of q along the weight j.

    The result has delta value 1, i.e. it is a classical assignment; which
    classical assignment depends on the choice of root, exactly through
    the parity twist below.

    sq is read like a value: a ``QuadExt`` as it is, anything else by
    ``as_fraction``.  sq = a + b*sqrt(rad) (b = 0 if rational) squares to q
    exactly when a*b = 0 and a^2 + b^2*rad = q, decided on integer
    numerators and denominators with no product in the field.  Then sq^n =
    q^(n // 2) * sq^(n % 2), so for n = -j_k a rational v goes to one
    ``fraction_monomial`` c^(n % 2) * v * q^(n // 2), c the nonzero part of
    sq, placed at sqrt(rad) if n is odd and b is not 0.  A ``QuadExt`` v
    goes to sq or the field's one sq^0 times v * q^(n // 2), which refuses
    a value from another extension exactly as v * sq^n does.
    """
    if isinstance(sq, QuadExt):
        a, b, rad = sq.a, sq.b, sq.rad
    else:
        sq = a = as_fraction(sq)
        b, rad = _ZERO, None
    c, s = (b, rad) if b else (a, _ONE)
    q = x.q
    cn, cd, qn, qd = c.numerator, c.denominator, q.numerator, q.denominator
    if (a and b) or cn * cn * s.numerator * qd != qn * cd * cd * s.denominator:
        raise ValidationError(f"square root check failed: ({sq})^2 != {q}")
    new_values = []
    for jk, v in zip(x.dd.j, x.values):
        half, odd = -jk // 2, jk % 2
        if isinstance(v, QuadExt):
            new_values.append((sq if odd else sq ** 0) * (v * q ** half))
            continue
        r = fraction_monomial(((cn, cd), (v.numerator, v.denominator), (qn, qd)), (odd, 1, half))
        if rad is None:
            new_values.append(r)
        elif odd and b:
            new_values.append(QuadExt._make(_ZERO, r, rad))
        else:
            new_values.append(QuadExt._make(r, _ZERO, rad))
    out = TorusAssignment._make(x.dd, tuple(new_values))
    if out.delta_value() != 1:
        raise RuntimeError(f"internal: split assignment has delta value {out.delta_value()}, not 1")
    return out


def epsilon_twist(assignment: TorusAssignment) -> TorusAssignment:
    """Multiply each basis value by the parity of the sum of positive
    roots.  An involution; trivial exactly when the central sign is.  t
    vanishes at delta, so a parameter's twist is a parameter of the same q."""
    t = assignment.dd.t
    return assignment._revalued(tuple(-v if t[k] % 2 else v
                                      for k, v in enumerate(assignment.values)))


def primes_below(bound: int) -> tuple[int, ...]:
    """Primes below the bound, by sieve (for partial Euler products)."""
    if bound <= 2:
        return ()
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return tuple(p for p in range(bound) if sieve[p])
