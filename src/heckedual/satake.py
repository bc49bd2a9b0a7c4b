"""Dot action, lifting to the extended lattice, spherical expansions.

The twisted Weyl action on unramified characters (division by the modulus
of the simple root at each reflection) linearizes on the extended lattice:
a coweight monomial lifted to delta-height n transforms by the plain
linear action there, and restricting the delta coordinate to q recovers
the twisted action below.  All spherical computations therefore happen
upstairs, where only integer delta-exponents ever occur, and are pushed
down at the end.

The image of a dominant coweight lambda is its Hall-Littlewood
symmetrization with parameter q^-1, summed over the Weyl orbit of
(lambda, 0) instead of over W (Macdonald, Symmetric Functions and Hall
Polynomials, III; Nelsen-Ram):

    S(e_lambda) = W_lambda(q^-1)^-1 * sum_{w in W} T_w e^(lambda,0)
                = sum_{u in W^lambda} T_u e^(lambda,0),

with Demazure-Lusztig operators T_i and W^lambda the minimal coset
representatives of W / W_lambda.  The walk starts at e^(lambda,0); each
orbit point mu with k = <alpha_i, mu> > 0 hands T_i of its term to s_i mu.
The Hecke braid relations make a term independent of the path that
reached it, and on a monomial T_i is a finite geometric sum, so nothing
is divided.  Each image is checked once, when it is built: its top
coefficient is 1, it is dot-invariant, and its dominant support lies
below its coweight.

The products of two images expand back into images of dominant coweights
with coefficients in Z[q, q^-1] by triangular peeling.  Peeling reads only
the dominant coweights below lambda+mu, so the product is computed at
those points alone and never formed whole.  The last two image checks
make a remainder that vanishes there vanish everywhere: it is dot-invariant,
with dominant support below lambda+mu.

An independent combinatorial check is provided for the rank-one adjoint
datum: structure counts of distance spheres on the (q+1)-regular tree,
obtained by enumerating the paths from a vertex, must match the algebraic
expansion coefficients after an explicit monomial rescaling.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .dualdata import LanglandsDualData, langlands_dual_data
from .errors import CapExceededError, ValidationError
from .lattice import (
    GroupAlgebraElement,
    Laurent,
    Vec,
    dot,
    vec_add,
    vec_scale,
    vec_sub,
)
from .rootdatum import (
    BUILTINS,
    RootDatum,
    WeylElement,
    coweight_order_key,
    dominant_below,
    is_dominant_coweight,
    positive_root_sum,
)

DEFAULT_TREE_NODE_CAP = 2_000_000
DEFAULT_TREE_DEPTH_CAP = 12


# ---------------------------------------------------------------------------
# the dot action on characters and on monomials


@dataclass(frozen=True)
class UnramifiedCharacter:
    """A character of the split torus given by its values on the coweight
    basis.  The dot action only multiplies values by powers of q, so each
    value is a pair (c, k) meaning c*q^k with c a nonzero Fraction.  Values
    extend multiplicatively."""

    datum: RootDatum
    values: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if len(self.values) != self.datum.rank:
            raise ValidationError("character needs one value per coweight basis vector")
        if any(c == 0 for c, _ in self.values):
            raise ValidationError("character values must be nonzero")

    def value_at(self, y: Sequence[int]) -> tuple[Fraction, int]:
        c, k = Fraction(1), 0
        for (vc, vk), e in zip(self.values, y):
            c *= Fraction(vc) ** e
            k += vk * e
        return c, k


def _dot_act_simple(d: RootDatum, i: int, chi: UnramifiedCharacter) -> UnramifiedCharacter:
    alpha = d.simple_roots[i]
    alphavee = d.simple_coroots[i]
    new_values = []
    for k in range(d.rank):
        basis = tuple(1 if c == k else 0 for c in range(d.rank))
        reflected = vec_sub(basis, tuple(alpha[k] * x for x in alphavee))
        c, exp = chi.value_at(reflected)
        new_values.append((c, exp + alpha[k]))
    return UnramifiedCharacter(d, tuple(new_values))


def dot_act_word(d: RootDatum, word: Sequence[int], chi: UnramifiedCharacter) -> UnramifiedCharacter:
    """Apply the twisted action along a word of simple reflections; the
    result is independent of the chosen reduced word."""
    for i in reversed(tuple(word)):
        chi = _dot_act_simple(d, i, chi)
    return chi


def dot_act(d: RootDatum, w: WeylElement, chi: UnramifiedCharacter) -> UnramifiedCharacter:
    return dot_act_word(d, w.word, chi)


def dot_act_poly(d: RootDatum, w: WeylElement, elem: GroupAlgebraElement) -> GroupAlgebraElement:
    """The twisted action on coweight monomials over Z[q, q^-1]: a simple
    reflection sends e^y to q^-dot(alpha, y) e^(sy)."""
    if elem.rank != d.rank:
        raise ValidationError("element rank does not match the datum")
    for i in reversed(w.word):
        alpha = d.simple_roots[i]
        alphavee = d.simple_coroots[i]
        out: dict[Vec, Laurent] = {}
        for y, c in elem.items():
            pairing = dot(alpha, y)
            image = vec_sub(y, tuple(pairing * x for x in alphavee))
            coeff = c.shift(-pairing)
            out[image] = out.get(image, Laurent.zero()) + coeff
        elem = GroupAlgebraElement(d.rank, out)
    return elem


def lift_exponent(y: Sequence[int], n: int) -> Vec:
    """Embed a coweight at delta-height n in the extended lattice."""
    return tuple(y) + (n,)


# ---------------------------------------------------------------------------
# spherical expansions


@dataclass
class SphericalFunction:
    """A dot-invariant element of the coweight group algebra."""

    poly: GroupAlgebraElement
    datum: RootDatum

    def is_dot_invariant(self) -> bool:
        """Invariance under every simple reflection, checked by lookups: the
        coefficient at y - <alpha, y> alphavee must be q^-<alpha, y> times
        the one at y."""
        poly = self.poly
        for alpha, alphavee in zip(self.datum.simple_roots, self.datum.simple_coroots):
            for y, c in poly.items():
                pairing = dot(alpha, y)
                if pairing and poly.coefficient(
                        vec_sub(y, vec_scale(pairing, alphavee))) != c.shift(-pairing):
                    return False
        return True

    @cached_property
    def dominant_terms(self) -> tuple[tuple[Vec, Laurent], ...]:
        """The terms at dominant coweights, which fix a dot-invariant element."""
        return tuple((y, c) for y, c in self.poly.items() if is_dominant_coweight(self.datum, y))

    def __str__(self):
        return str(self.poly)


def _demazure_lusztig(elem: GroupAlgebraElement, alpha: Vec, alphavee: Vec) -> GroupAlgebraElement:
    """The Demazure-Lusztig operator with parameter q^-1,

        T f = q^-1 s(f) + (1 - q^-1) (f - s(f)) / (e^alphavee - 1),

    for the reflection s(e^y) = e^(y - k alphavee), k = <alpha, y>.  The
    quotient is a finite geometric sum: e^(y - j alphavee) for j = 1..k
    when k > 0, minus the same for j = k+1..0 when k < 0, none when k = 0.
    """
    out: dict[Vec, Laurent] = {}

    def add(y: Vec, c: Laurent):
        out[y] = out[y] + c if y in out else c

    for y, c in elem.items():
        k = dot(alpha, y)
        lowered = c.shift(-1)
        add(vec_sub(y, vec_scale(k, alphavee)), lowered)
        rest = c - lowered if k > 0 else lowered - c
        for j in range(min(1, k + 1), max(1, k + 1)):
            add(vec_sub(y, vec_scale(j, alphavee)), rest)
    return GroupAlgebraElement(elem.rank, out)


def satake_image_extended(dd: LanglandsDualData, lam: Vec) -> GroupAlgebraElement:
    """The symmetrized image on the extended lattice, before restriction,
    summed over the orbit of (lambda, 0) as the module docstring describes.

    Every delta-exponent in the support is an integer by construction; the
    coefficient of e^(lambda, 0) is exactly 1.
    """
    lam = tuple(int(x) for x in lam)
    if not is_dominant_coweight(dd.base, lam):
        raise ValidationError(f"coweight {lam} is not dominant")
    ext = dd.ext
    simple = tuple(zip(ext.simple_roots, ext.simple_coroots))
    start = lift_exponent(lam, 0)
    terms = {start: GroupAlgebraElement.monomial(start)}
    frontier = [start]
    while frontier:
        mu = frontier.pop()
        for alpha, alphavee in simple:
            k = dot(alpha, mu)
            nu = vec_sub(mu, vec_scale(k, alphavee))
            if k > 0 and nu not in terms:
                terms[nu] = _demazure_lusztig(terms[mu], alpha, alphavee)
                frontier.append(nu)
    image = sum(terms.values(), GroupAlgebraElement.zero(ext.rank))
    if image.coefficient(start) != Laurent.one():
        raise RuntimeError(f"internal: leading coefficient at {lam} is not 1")
    return image


@lru_cache(maxsize=None)
def _satake_image_cached(dd: LanglandsDualData, lam: Vec) -> SphericalFunction:
    extended = satake_image_extended(dd, lam)
    image = SphericalFunction(extended.specialize_delta(dd.delta_index), dd.base)
    # with these two, a peel that is exact at the dominant points below
    # lambda+mu leaves a zero remainder everywhere (see structure_polynomials)
    if not image.is_dot_invariant():
        raise RuntimeError(f"internal: image of {lam} is not dot-invariant")
    below = set(dominant_below(dd.base, lam))
    for y, _ in image.dominant_terms:
        if y not in below:
            raise RuntimeError(f"internal: image of {lam} has dominant support {y} not below it")
    return image


def satake_image(dd: LanglandsDualData, lam: Sequence[int]) -> SphericalFunction:
    """Spherical expansion of a dominant coweight, restricted to the fiber.

    Coefficients land in Z[q, q^-1]; the result is invariant under the
    twisted Weyl action and its coefficient at e^lambda is 1.
    """
    return _satake_image_cached(dd, tuple(int(x) for x in lam))


@dataclass
class HeckeExpansion:
    """Coefficients of a product of basis elements: a map from dominant
    coweights to Z[q, q^-1], with no zero entries stored."""

    datum: RootDatum
    coeffs: dict[Vec, Laurent]

    def __post_init__(self):
        self.coeffs = {tuple(v): c for v, c in self.coeffs.items() if not c.is_zero()}

    def get(self, nu: Sequence[int]) -> Laurent:
        return self.coeffs.get(tuple(nu), Laurent.zero())

    def items(self) -> list[tuple[Vec, Laurent]]:
        return sorted(self.coeffs.items(), key=lambda kv: coweight_order_key(self.datum, kv[0]))

    def __eq__(self, other):
        return isinstance(other, HeckeExpansion) and self.coeffs == other.coeffs

    def __str__(self):
        body = ", ".join(f"e[{','.join(str(x) for x in v)}]: {c}" for v, c in self.items())
        return "{" + body + "}"


def structure_polynomials(dd: LanglandsDualData, lam: Sequence[int], mu: Sequence[int]) -> HeckeExpansion:
    """Expand the product of two basis images in the basis again.

    The product is strictly triangular, and peeling reads it only at the
    dominant coweights nu <= lambda+mu.  So its coefficients are computed
    at those points alone, and peeled there in decreasing dominance order
    from a residual map, with unit coefficient at the top.  The residual
    must end at zero on every one of those points.  Each image is checked
    once, when built, to be dot-invariant with dominant support below its
    coweight; the dot action is a ring automorphism, so the whole remainder
    is then dot-invariant with dominant support below lambda+mu, and it is
    zero exactly when the residual is.  A violation is reported as an
    internal error.
    """
    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    top = vec_add(lam, mu)
    points = dominant_below(dd.base, top)
    residual = satake_image(dd, lam).poly.product_coefficients(satake_image(dd, mu).poly, points)
    coeffs: dict[Vec, Laurent] = {}
    for nu in points:
        c = residual.get(nu)
        if c is None:
            continue
        coeffs[nu] = c
        for kappa, d in satake_image(dd, nu).dominant_terms:
            left = residual.get(kappa, Laurent.zero()) - c * d
            if left:
                residual[kappa] = left
            else:
                del residual[kappa]
    if residual:
        raise RuntimeError("internal: nonzero residual at a dominant point after peeling")
    if coeffs.get(top) != Laurent.one():
        raise RuntimeError("internal: top coefficient is not 1")
    return HeckeExpansion(dd.base, coeffs)


# ---------------------------------------------------------------------------
# the regular-tree oracle for the rank-one adjoint datum


def tree_structure_constants(m: int, n: int, q: int,
                             depth_cap: int = DEFAULT_TREE_DEPTH_CAP) -> dict[int, int]:
    """Counts on the (q+1)-regular tree, by enumerating paths.

    For vertices u, v at distance d, counts the w with dist(u, w) = m and
    dist(w, v) = n.  Returns one count per admissible distance d, i.e.
    |m - n| <= d <= m + n with d = m + n (mod 2).

    A vertex w of the sphere of radius m about u is its non-backtracking
    path from u: q + 1 choices for the first step, q for each later one.
    Taking v to be the all-zero path of length d, the paths to w and to v
    share their first min(z, d) steps, z the number of leading zeros of
    w's path, so dist(w, v) = m + d - 2 min(z, d).
    """
    if q < 2:
        raise ValidationError("tree oracle needs q >= 2")
    if m < 0 or n < 0:
        raise ValidationError("sphere radii must be nonnegative")
    depth = m + n
    if depth > depth_cap:
        raise CapExceededError(f"tree depth {depth} exceeds the cap of {depth_cap}")
    total = 1
    level = 1
    for _ in range(depth):
        level = level * q if level > 1 else q + 1
        total += level
        if total > DEFAULT_TREE_NODE_CAP:
            raise CapExceededError("tree size exceeds the node cap")
    zeros = _leading_zero_histogram(m, q)
    return {d: sum(count for z, count in zeros if m + d - 2 * min(z, d) == n)
            for d in range(abs(m - n), m + n + 1, 2)}


@lru_cache(maxsize=None)
def _leading_zero_histogram(m: int, q: int) -> tuple[tuple[int, int], ...]:
    """(z, count) pairs: how many non-backtracking paths of length m from a
    vertex of the (q+1)-regular tree start with exactly z zero steps.  It
    does not depend on the second radius n, so all n share one enumeration."""
    steps = [range(q + 1)] + [range(q)] * (m - 1) if m else []
    zeros = Counter(next((z for z, step in enumerate(path) if step), m)
                    for path in itertools.product(*steps))
    return tuple(zeros.items())


@dataclass(frozen=True)
class OracleEntry:
    m: int
    n: int
    d: int
    exponent: int
    tree_count: int
    algebra_value: Fraction
    rescaled_integral: bool

    @property
    def ok(self) -> bool:
        return (self.algebra_value == self.tree_count
                and self.exponent >= 0
                and self.exponent % 2 == 0
                and self.rescaled_integral)


@dataclass(frozen=True)
class OracleReport:
    q: int
    max_height: int
    entries: tuple[OracleEntry, ...]

    @property
    def failures(self) -> tuple[OracleEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def observed_coefficient_ring(self) -> str:
        """Coefficient ring seen after rescaling; reported, not asserted."""
        if all(e.rescaled_integral for e in self.entries):
            return "Z[q]"
        return "Z[q, q^-1]"


def compare_rank1_oracle(q0: int, max_height: int,
                         depth_cap: int = DEFAULT_TREE_DEPTH_CAP) -> OracleReport:
    """Cross-check the rank-one expansion against the regular tree.

    For lambda = m*mu and mu' = n*mu with m + n <= max_height, each
    expansion coefficient rescaled by q^dot(t, lambda + mu' - nu) and
    evaluated at q = q0 must equal the tree count at the matching
    distance; mismatches are collected, not raised.  The deepest tree is
    max_height, refused up front when it exceeds depth_cap.
    """
    if max_height > depth_cap:
        raise CapExceededError(f"tree depth {max_height} exceeds the cap of {depth_cap}")
    dd = langlands_dual_data(BUILTINS["PGL2"])
    t = positive_root_sum(dd.base)
    entries = []
    for m in range(max_height + 1):
        for n in range(max_height + 1 - m):
            expansion = structure_polynomials(dd, (m,), (n,))
            counts = tree_structure_constants(m, n, q0, depth_cap=depth_cap)
            seen = set(expansion.coeffs)
            for d, count in sorted(counts.items()):
                nu = (d,)
                coeff = expansion.get(nu)
                exponent = dot(t, vec_sub(vec_add((m,), (n,)), nu))
                rescaled = coeff.shift(exponent)
                integral = rescaled.is_zero() or rescaled.min_exp() >= 0
                value = coeff.evaluate(Fraction(q0)) * Fraction(q0) ** exponent
                entries.append(OracleEntry(m, n, d, exponent, count, value, integral))
                seen.discard(nu)
            for nu in sorted(seen):
                # algebra produced a coefficient the tree did not predict
                entries.append(OracleEntry(m, n, nu[0], 0, 0,
                                           expansion.get(nu).evaluate(Fraction(q0)), True))
    return OracleReport(q0, max_height, tuple(entries))


# ---------------------------------------------------------------------------
# enumeration helper shared by the CLI and the test suite


def enumerate_dominant(d: RootDatum, height: int) -> tuple[Vec, ...]:
    """All dominant coweights with every coordinate bounded by height in
    absolute value, in decreasing dominance-compatible order."""
    found = [v for v in itertools.product(range(-height, height + 1), repeat=d.rank)
             if is_dominant_coweight(d, v)]
    found.sort(key=lambda v: coweight_order_key(d, v))
    return tuple(found)
