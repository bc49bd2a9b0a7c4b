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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Union

from .dualdata import LanglandsDualData
from .errors import OmegaViolationError, PoleError, ValidationError
from .lattice import Vec, dot, mat_apply
from .rootdatum import simple_reflection_y, weyl_group

# ---------------------------------------------------------------------------
# the quadratic coefficient field Q(sqrt(rad))


@dataclass(frozen=True)
class QuadExt:
    """a + b*sqrt(rad) with exact rational a, b and a fixed radicand."""

    a: Fraction
    b: Fraction
    rad: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "rad", Fraction(self.rad))

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.rad != self.rad:
                raise ValidationError("mixing different quadratic extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.rad)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + other.a, self.b + other.b, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - other.a, self.b - other.b, self.rad)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.rad)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadExt(self.a * other.a + self.b * other.b * self.rad,
                       self.a * other.b + self.b * other.a, self.rad)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.rad
        if norm == 0:
            raise ZeroDivisionError("inverse of zero (or of a zero divisor)")
        return QuadExt(self.a / norm, -self.b / norm, self.rad)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exp: int) -> "QuadExt":
        if exp < 0:
            return self.inverse() ** (-exp)
        out = QuadExt(Fraction(1), Fraction(0), self.rad)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
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
        return QuadExt(self.a, -self.b, self.rad)

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
    the generator of the quadratic extension Q(sqrt(q))."""
    q = Fraction(q)
    if q <= 0:
        raise ValidationError("square roots only of positive values")
    num_root = math.isqrt(q.numerator)
    den_root = math.isqrt(q.denominator)
    if num_root * num_root == q.numerator and den_root * den_root == q.denominator:
        return Fraction(num_root, den_root)
    return QuadExt(Fraction(0), Fraction(1), q)


# ---------------------------------------------------------------------------
# parameters and assignments on the extended coweight lattice


@dataclass(frozen=True)
class TorusAssignment:
    """A multiplicative assignment on the extended coweight basis."""

    dd: LanglandsDualData
    values: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.values) != self.dd.ext.rank:
            raise ValidationError("assignment needs one value per extended basis vector")
        if any(not v for v in self.values):
            raise ValidationError("assignment values must be nonzero")

    def value_at(self, ytilde: Sequence[int]) -> FieldElement:
        out: FieldElement = Fraction(1)
        for v, e in zip(self.values, ytilde):
            if e:
                out = out * v ** e
        return out

    def delta_value(self) -> FieldElement:
        return self.values[self.dd.delta_index]

    def conjugate(self) -> "TorusAssignment":
        return replace(self, values=tuple(field_conjugate(v) for v in self.values))


@dataclass(frozen=True)
class UnramifiedParameter(TorusAssignment):
    """A torus assignment satisfying the modulus condition at delta."""

    q: Fraction

    def __post_init__(self):
        super().__post_init__()
        if self.values[self.dd.delta_index] != self.q:
            raise OmegaViolationError(
                f"(omega) violated: delta value {self.values[self.dd.delta_index]}"
                f" differs from q = {self.q}")


def make_parameter(dd: LanglandsDualData, q, base_values: Sequence[FieldElement],
                   delta_value=None) -> UnramifiedParameter:
    """Build a parameter from values on the base coweight basis.

    The delta value is forced to q; passing an explicit delta value that
    disagrees raises the modulus violation.
    """
    q = Fraction(q)
    if q <= 1:
        raise ValidationError(f"residue cardinality q = {q} must exceed 1")
    base_values = tuple(base_values)
    if len(base_values) != dd.base.rank:
        raise ValidationError("expected one value per base coweight basis vector")
    for v in base_values:
        if not v:
            raise ValidationError("parameter values must be nonzero")
    if delta_value is not None and delta_value != q:
        raise OmegaViolationError(
            f"(omega) violated: delta value {delta_value} differs from q = {q}")
    values = base_values + (q,)
    return UnramifiedParameter(dd, values, q)


# ---------------------------------------------------------------------------
# representations of the dual-side group, by weight multiset


@dataclass(frozen=True)
class DualRepresentation:
    """A finite weight multiset in the extended coweight lattice, stable
    under the extended Weyl action."""

    dd: LanglandsDualData
    weights: tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           tuple(sorted(tuple(int(x) for x in w) for w in self.weights)))
        rank = self.dd.ext.rank
        for w in self.weights:
            if len(w) != rank:
                raise ValidationError(f"weight {w} has wrong rank")
        if not self._is_stable():
            raise ValidationError("weight multiset is not Weyl stable")

    def _is_stable(self) -> bool:
        """Stable under every simple reflection, which generate the group."""
        ext = self.dd.ext
        counter = Counter(self.weights)
        for i in range(ext.semisimple_rank):
            reflection = simple_reflection_y(ext, i)
            if Counter(mat_apply(reflection, wt) for wt in self.weights) != counter:
                return False
        return True

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @classmethod
    def trivial(cls, dd: LanglandsDualData) -> "DualRepresentation":
        return cls(dd, ((0,) * dd.ext.rank,))

    @classmethod
    def projection_character(cls, dd: LanglandsDualData) -> "DualRepresentation":
        """The one-dimensional representation with weight delta."""
        return cls(dd, (dd.i,))

    @classmethod
    def from_orbits(cls, dd: LanglandsDualData, seeds: Sequence[Sequence[int]]) -> "DualRepresentation":
        weights: list[Vec] = []
        for seed in seeds:
            seed = tuple(int(x) for x in seed)
            orbit = {tuple(dot(row, seed) for row in w.mat_y) for w in weyl_group(dd.ext)}
            weights.extend(sorted(orbit))
        return cls(dd, tuple(weights))


def tensor_with_projection(tau: DualRepresentation) -> DualRepresentation:
    """Tensor by the delta character: shift every weight by delta."""
    delta = tau.dd.i
    return DualRepresentation(tau.dd, tuple(
        tuple(a + b for a, b in zip(wt, delta)) for wt in tau.weights))


def contragredient_rep(dd: LanglandsDualData, tau: DualRepresentation) -> DualRepresentation:
    """The twisted dual: weights delta - w.  An involution, since delta is
    Weyl fixed."""
    delta = dd.i
    return DualRepresentation(dd, tuple(
        tuple(a - b for a, b in zip(delta, wt)) for wt in tau.weights))


# ---------------------------------------------------------------------------
# local factors and partial products


_POLE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class RFactor:
    """A local factor prod (1 - c_i u)^-1 in u = q^-s, by its inverse
    roots.  The number of inverse roots is the dimension of the
    representation."""

    q: Fraction
    inverse_roots: tuple[FieldElement, ...]

    @property
    def degree(self) -> int:
        return len(self.inverse_roots)

    def shifted(self, steps: int = 1) -> "RFactor":
        """Replace s by s - steps: every inverse root picks up q^steps."""
        scale = self.q ** steps
        return RFactor(self.q, tuple(c * scale for c in self.inverse_roots))

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
    """Inverse roots are the parameter values at the weights of tau."""
    if tau.dd is not x.dd and tau.dd != x.dd:
        raise ValidationError("parameter and representation use different dual data")
    return RFactor(x.q, tuple(x.value_at(w) for w in tau.weights))


def partial_rfunction(places: Sequence[tuple[Fraction, UnramifiedParameter]],
                      tau: DualRepresentation, s: float) -> float:
    """Finite product of local factor values, accumulated left to right.

    A pole at any place is reported with the offending residue cardinality
    rather than propagating a bare division error.
    """
    value = 1.0
    for q_v, param in places:
        if Fraction(q_v) != param.q:
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
    """
    if sq * sq != x.q:
        raise ValidationError(f"square root check failed: ({sq})^2 != {x.q}")
    j = x.dd.j
    new_values = tuple(v * sq ** (-j[k]) for k, v in enumerate(x.values))
    out = TorusAssignment(x.dd, new_values)
    assert out.delta_value() == 1
    return out


def epsilon_twist(assignment: TorusAssignment) -> TorusAssignment:
    """Multiply each basis value by the parity of the sum of positive
    roots.  An involution; trivial exactly when the central sign is."""
    t = assignment.dd.t
    new_values = tuple(-v if t[k] % 2 else v
                       for k, v in enumerate(assignment.values))
    return replace(assignment, values=new_values)


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
