"""Dot action, lifting to the extended lattice, spherical expansions.

The twisted Weyl action on unramified characters (division by the modulus
of the simple root at each reflection) linearizes on the extended lattice:
a coweight monomial lifted to delta-height n transforms by the plain
linear action there, and restricting the delta coordinate to q recovers
the twisted action below.  Only integer delta-exponents occur upstairs.
The extended coroots are (alphavee, 1), so a monomial there keeps its
delta-exponent as a power of q below, and the symmetrization runs below
the extension with the same result.  One dot step, e^y -> q^-<alpha, y>
e^(s y) for a simple reflection s (``_dot_reflect``), is the dot action
on elements, folded over the reduced word of a Weyl element.

The image of a dominant coweight lambda is its Hall-Littlewood
symmetrization with parameter q^-1, summed over the Weyl orbit of
(lambda, 0) instead of over W (Macdonald, Symmetric Functions and Hall
Polynomials, III; Nelsen-Ram):

    S(e_lambda) = W_lambda(q^-1)^-1 * sum_{w in W} T_w e^(lambda,0)
                = sum_{u in W^lambda} T_u e^(lambda,0),

with Demazure-Lusztig operators T_i and W^lambda the minimal coset
representatives of W / W_lambda.  The walk goes breadth first from
e^(lambda,0) (``rootdatum.orbit_walk``), so each step, from mu to a new
point s_i mu, has k = <alpha_i, mu> > 0 and hands T_i of mu's term to s_i
mu.  The Hecke braid relations make a term independent of the path that
reached it, and on a monomial T_i is a finite geometric sum, so nothing
is divided.  Each image is checked once, when it is built, on the keys
below: its top coefficient is 1, it is dot-invariant, and its dominant
support lies below its coweight.

The walk runs upstairs, on ints (``_Keys``).  A term y of a partial sum
lies in lambda minus the coroot lattice, where its pairings <alpha_i, y>
name it, and so its delta-exponent -h, h = <rho, lambda - y>, one to one,
whatever the basis of the coweights.  Each point y is one int key, its
pairings packed with a bias in every digit at the peel's slot for a top of
lambda (``_peel_keys``), and its value is the t-int of its lift (below),
one int for the whole polynomial in q^-1.  An extended coroot
(alphavee_i, 1) is a move, one int add, while k = <alpha_i, y> is one
shift and mask, and a step multiplies a value by 1, q^-1 (one shift) or
1 - q^-1 (a shift and a subtraction).  A lift is constant on its W-orbit (below), so the
build keeps one per orbit, at its dominant point, and one orbit walk on
keys (``_fill``) serves both the invariance check and the whole views of a
peel's two factors.  ``satake_image`` decodes an image once per class, on
request, and only its dominant coefficients, each by ``t_laurent``, the
one decoder: they fix the image (``SphericalFunction``), whose orbits are
filled by the dot step only when read.

The products of two images expand back into images of dominant coweights
with coefficients in Z[q, q^-1] by triangular peeling.  Peeling reads only
the dominant coweights below lambda+mu, so the product is computed at
those points alone and never formed whole.  The last two image checks
make a remainder that vanishes there vanish everywhere: it is dot-invariant,
with dominant support below lambda+mu.

The peel keys every term, point and residual entry by its pairings
(<alpha_i, y>)_i, packed (``pack``, a Kronecker substitution, as for the
peel's t-ints).  This module decides both packed formats, keys and t-ints,
and ``unpack`` is the one reader of their balanced digits.  Every coweight
a peel at top meets lies in top minus the coroot lattice, where the
pairings are linear and one to one, as the Cartan matrix is invertible;
they do not depend on the basis, and a central shift leaves them alone.
So looking up v - y in the other factor is one int subtraction, and a term
y of the cached image of nu's class lands in the residual at its own key,
with no shift.  A compared pairing is a point's, at most <2 rho, top>,
less a term's, at most <2 rho, nu> <= <2 rho, top>, so the slot
pack_slot(2 <2 rho, top>) in ``_peel_keys`` is one to one on them, and
known before any image is built.  Every image a peel reads, of lambda, mu
or a nu <= top, is built at its own slot, at most the peel's, and a wider
read packs the pairings of its dominant points there (``_Image``).

The peel's coefficients are plain ints, in t = q^-1.  A term c e^y of an
image S(lambda) lifts to the extended lattice with the coefficient q^h c,
h = <rho, lambda - y>.  Upstairs the walk starts at 1 and each T_i has
coefficients q^-1 and 1 - q^-1, so every lifted coefficient lies in Z[t]
(Macdonald, III): the walk holds each lift as a t-int from the start, and
no step can make a positive power of q.  The image upstairs is
W-invariant, so the lift is constant on each W-orbit.  h is linear in y:
the pairs of terms of S(lambda) and S(mu) that meet at a point v, and the
image of nu moved to v, all carry the one factor q^<rho, top - v> between
their coefficients and their lifts.  So the peel runs on lifts, each
held as its t-int, sum_i c_i 2^(64 i) for the coefficient c_i of q^-i,
and a product term is one int product and one int add, with no exponent
to align (a term c t^i is c shifted by i digits).  The residual at v
holds the lift of the product's coefficient there, and the coefficient
of nu is its residual value times q^-<rho, top - nu>, the depth that
``rootdatum`` hands out with each point below top.  Each image carries
the sum and the largest of the norms sum_i |c_i| of its coefficients,
which the lift keeps.  One running bound per peel covers every residual value:
it starts at min(|a|_1 max|b|, |b|_1 max|a|) over the two factors, and
each peeled c adds |c| times the largest norm in S(nu).  A residual value
is read (the zero test, the decode, the last test) only while the bound is
below 2^63, so every digit holds its coefficient; otherwise the peel
raises an internal error.  Each distinct lifted coefficient, with its
depth, is decoded into a Laurent and its exact norm once per process
(``_decoded``), and every read of that decode, the first included, comes
under the bound of the peel that reads it.

A central coweight z, <alpha_i, z> = 0 for every simple root, only shifts:
S(lambda + z) = e^z S(lambda), and since dominance and the points below
move with z, c^(nu+z+z')_(lambda+z, mu+z') = c^nu_(lambda, mu).  Two
coweights differ by a central one exactly when they have the same pairings
(<alpha_i, lambda>)_i with the simple roots, and a coweight is dominant
exactly when its pairings are >= 0; so one pass over the simple roots both
validates a coweight and names its class.  Images are built, checked and
cached once per class, at the first coweight of the class asked for, and
handed out to the others with their dominant coefficients shifted; a
product is peeled, with both of its checks, once per unordered pair of
classes, which is exact because the group algebra is commutative, and its
expansion is handed out shifted.
No output depends on which coweight represents a class.

An independent combinatorial check is provided for the rank-one adjoint
datum: structure counts of distance spheres on the (q+1)-regular tree,
from paths counted in closed form by their leading zeros, must match the
algebraic expansion coefficients after an explicit monomial rescaling.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .dualdata import LanglandsDualData, langlands_dual_data
from .errors import CapExceededError, RankMismatchError, ValidationError
from .lattice import (
    GroupAlgebraElement,
    Laurent,
    Vec,
    as_fraction,
    as_int,
    dot,
    fraction_monomial,
    int_vector,
    vec_add,
    vec_sub,
    vec_sub_scaled,
)
from .rootdatum import (
    BUILTINS,
    DEFAULT_TREE_DEPTH_CAP,
    FrozenRecord,
    RootDatum,
    cartan_matrix,
    _dominant_below,
    coweight_order_key,
    orbit_walk,
    pairings,
    positive_root_sum,
    require_dominant,
    require_dominant_pairings,
)


# ---------------------------------------------------------------------------
# the dot action on characters and on monomials


class UnramifiedCharacter(FrozenRecord):
    """A character of the split torus given by its values on the coweight
    basis.  The dot action only multiplies values by powers of q, so each
    value is a pair (c, k) meaning c*q^k with c a nonzero Fraction, read by
    ``as_fraction``, and k read by ``as_int``.  Values extend
    multiplicatively."""

    __slots__ = _fields = ("datum", "values")

    def __init__(self, datum: RootDatum, values: Sequence[tuple[Fraction, int]]):
        if len(values) != datum.rank:
            raise ValidationError("character needs one value per coweight basis vector")
        values = tuple((as_fraction(c), as_int(k)) for c, k in values)
        if any(c == 0 for c, _ in values):
            raise ValidationError("character values must be nonzero")
        self._init(datum, values)

    def value_at(self, y: Sequence[int]) -> tuple[Fraction, int]:
        y = int_vector(y)
        if len(y) != len(self.values):
            raise RankMismatchError(f"value at a rank-{len(y)} vector, not rank {len(self.values)}")
        return (fraction_monomial([(c.numerator, c.denominator) for c, _ in self.values], y),
                sum(k * e for (_, k), e in zip(self.values, y)))


def _dot_act_simple(d: RootDatum, i: int, chi: UnramifiedCharacter) -> UnramifiedCharacter:
    # s e_k = e_k - a_k alphavee with a_k = <alpha, e_k>, so the value (c_k, k_k)
    # at e_k goes to (c_k C^-a_k, k_k - K a_k), (C, K) = chi(alphavee), times q^a_k
    cv, kv = chi.value_at(d.simple_coroots[i])
    return UnramifiedCharacter(d, tuple((c * cv ** -a, k - (kv - 1) * a)
                                        for (c, k), a in zip(chi.values, d.simple_roots[i])))


def dot_act(d: RootDatum, word: Sequence[int], chi: UnramifiedCharacter) -> UnramifiedCharacter:
    """Apply the twisted action along a word of simple reflections; the
    result is independent of the chosen reduced word."""
    for i in reversed(tuple(word)):
        chi = _dot_act_simple(d, i, chi)
    return chi


def dot_act_poly(d: RootDatum, word: Sequence[int], elem: GroupAlgebraElement) -> GroupAlgebraElement:
    """The twisted action on coweight monomials over Z[q, q^-1], one
    simple reflection of the word at a time (``_dot_reflect``)."""
    if elem.rank != d.rank:
        raise ValidationError("element rank does not match the datum")
    for i in reversed(tuple(word)):
        elem = _dot_reflect(elem, d.simple_roots[i], d.simple_coroots[i])
    return elem


def _dot_reflect(elem: GroupAlgebraElement, alpha: Vec, alphavee: Vec) -> GroupAlgebraElement:
    """The dot step of the simple reflection s of alpha and alphavee:
    e^y -> q^-<alpha, y> e^(s y)."""
    terms = ((vec_sub_scaled(y, k, alphavee), c.shift(-k))
             for y, c in elem.items() for k in (dot(alpha, y),))
    return GroupAlgebraElement.collect(elem.rank, [terms])


def lift_exponent(y: Sequence[int], n: int) -> Vec:
    """Embed a coweight at delta-height n in the extended lattice."""
    return tuple(y) + (n,)


# ---------------------------------------------------------------------------
# packed vectors and t-ints


def pack(v: Sequence[int], slot: int) -> int:
    """The Kronecker packing sum_i v_i 2^(slot i) of an integer vector.

    It is linear, pack(v - y) = pack(v) - pack(y), and one to one on the
    vectors whose coordinates are below 2^(slot-1) in absolute value, which
    ``unpack`` reads back."""
    n = shift = 0
    for x in v:
        n += x << shift
        shift += slot
    return n


def pack_slot(bound: int) -> int:
    """The least whole number of bytes, as a slot width in bits, under
    which ``pack`` is one to one on the vectors whose coordinates are at
    most bound in absolute value."""
    return 8 * (bound.bit_length() // 8 + 1)


def unpack(n: int, slot: int) -> list[int]:
    """The balanced digits of n in base 2^slot, lowest first, each in
    [-2^(slot-1), 2^(slot-1)), up to the highest nonzero one: v less its
    trailing zeros for n = pack(v, slot), each |v_i| < 2^(slot-1)."""
    half, mask, v = 1 << (slot - 1), (1 << slot) - 1, []
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        v.append(c)
        n = (n - c) >> slot
    return v


_SLOT = 64  # bits per digit of a t-int
_HALF = 1 << (_SLOT - 1)


def require_digits_fit(bound: int) -> None:
    """An internal RuntimeError unless a bound on the norm sum_i |c_i| of a
    t-int shows that every coefficient fits its digit."""
    if bound >= _HALF:
        raise RuntimeError(f"internal: coefficient bound {bound} reaches half a {_SLOT}-bit slot")


def t_laurent(n: int, power: int, bound: int) -> tuple[Laurent, int]:
    """q^power times the polynomial of the t-int n, as a Laurent in q, and
    its exact norm, read once bound, on the norm, shows that every
    coefficient fits its digit.  Digit i is the coefficient of
    q^(power - i), so the Laurent's coefficients run the other way."""
    require_digits_fit(bound)
    coeffs = unpack(n, _SLOT)
    lo = power + 1 - len(coeffs)
    coeffs.reverse()  # from the lowest power of q up
    # the highest digit, now first, is nonzero, but the lowest may be 0
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return Laurent._make(lo if coeffs else 0, tuple(coeffs)), sum(map(abs, coeffs))


def product_coefficients(a: Mapping[int, int], b: Mapping[int, int],
                         points: Iterable[int]) -> dict[int, int]:
    """Coefficients of a product of two group-algebra elements over Z[t] at
    the given points only, as t-ints keyed by packed vectors: a term y of
    a and a term z of b meet at a point v exactly when key(v) - key(y) =
    key(z), as for pack of a linear map that is one to one on the exponents,
    at a slot that packs each difference one to one.  Points no pair of
    terms reaches are omitted; a coefficient that cancels is kept, as zero.

    Each point costs one int subtraction and one lookup per term of the
    smaller factor, instead of forming the whole product, and each pair of
    terms that meets there one int product and one int add.  The caller
    bounds the norms: at most min(|a|_1 max|b|, |b|_1 max|a|) per point.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    small_items = list(small.items())
    get = large.get
    out: dict[int, int] = {}
    for v in points:
        n, met = 0, False
        for y, c in small_items:
            e = get(v - y)
            if e is not None:
                n += c * e
                met = True
        if met:
            out[v] = n
    return out


def add_products_into(acc: dict[int, int], c: int, terms: Iterable[tuple[int, int]]) -> None:
    """acc[k] += c * e for every term (k, e), t-ints in packed vectors, in
    place: one int add per key and one int product per term.  An entry
    that cancels is kept, as zero.  Each entry's norm grows by at most
    |c|_1 max |e|_1, which the caller adds to its bound."""
    get = acc.get
    for k, e in terms:
        acc[k] = get(k, 0) + c * e


# ---------------------------------------------------------------------------
# spherical expansions


class SphericalFunction(FrozenRecord):
    """A dot-invariant element of the coweight group algebra, stored by its
    coefficients at the dominant coweights, which fix it: its expansion in
    the orbit sums m_nu (Macdonald, Symmetric Functions and Hall
    Polynomials, III.2).  Equality and hash read the datum and those
    coefficients.  Frozen, since the image cache hands out the same
    instance to every caller; the whole element, ``poly``, is filled on its
    first read, into the instance ``__dict__``."""

    _fields = ("datum", "dominant")

    def __init__(self, datum: RootDatum, dominant: GroupAlgebraElement):
        self._init(datum, dominant)

    @cached_property
    def poly(self) -> GroupAlgebraElement:
        """Each orbit filled from its dominant coweight nu by the dot step,
        c(s_i mu) = q^-<alpha_i, mu> c(mu), along the walk from nu."""
        d, terms = self.datum, {}
        for nu, c in self.dominant.items():
            terms[nu] = c
            for mu, i, y in orbit_walk(d, nu):
                terms[y] = terms[mu].shift(-dot(d.simple_roots[i], mu))
        return GroupAlgebraElement._make(d.rank, terms)

    def __str__(self):
        return str(self.poly)


@lru_cache(maxsize=None)
def _peel_keys(d: RootDatum, top: Vec) -> tuple[int, tuple[int, ...]]:
    """The one slot table: the slot of every key at top, pack_slot(2 <2 rho,
    top>), and the packed pairings of the points of ``dominant_below(top)``,
    index by index: a peel at top keys its points by them, and an image of
    top is walked, built and decoded at their slot."""
    slot = pack_slot(2 * dot(positive_root_sum(d), top))
    return slot, tuple([pack(p, slot) for p in _dominant_below(d, top)[1]])


@lru_cache(maxsize=None)
def _key_table(d: RootDatum, slot: int) -> tuple[int, int, tuple[int, ...], int]:
    """The bias B = 2^(slot-1) of each digit of a key at slot, the digit
    mask, the moves y -> y - alphavee_i (the pairings less the Cartan row
    i, which fix h, so no key holds a delta-exponent) and the packed biases."""
    bias = 1 << (slot - 1)
    moves = tuple(-pack(row, slot) for row in cartan_matrix(d))
    return bias, (1 << slot) - 1, moves, pack((bias,) * len(moves), slot)


class _Keys:
    """The int keys of the points y of the walk from a dominant coweight
    lambda with pairings p, y in lambda minus the coroot lattice:

        sum_i (<alpha_i, y> + B) 2^(slot i)

    over the k simple roots, with B = 2^(slot-1) and the slot of lambda in
    ``_peel_keys``, B > 2 <2 rho, lambda>.  Every partial sum lies in the
    hull of the orbit of lambda, where |<alpha_i, y>| <= max_beta <beta,
    lambda> <= <2 rho, lambda> over the positive roots, so every digit lies
    in [0, 2^slot).  A key less ``dominant``, the packed biases, is the peel
    key of y, and y is dominant when every digit has its top bit, B, set.
    The walk's values are t-ints ``width`` bits a digit (``_walk``)."""

    __slots__ = ("slot", "bias", "mask", "width", "moves", "dominant", "start")

    def __init__(self, d: RootDatum, lam: Vec, p: Vec, width: int):
        self.slot = slot = _peel_keys(d, lam)[0]
        self.bias, self.mask, self.moves, self.dominant = _key_table(d, slot)
        self.width = width
        self.start = self.key(p)

    def key(self, p: Sequence[int]) -> int:
        """The key of the point with pairings p."""
        return pack([x + self.bias for x in p], self.slot)

    def pairings(self, point: int) -> Vec:
        """The pairings of the point of a key, read for a message only."""
        p = unpack(point - self.dominant, self.slot)
        return tuple(p + [0] * (len(self.moves) - len(p)))


def _step(keys: _Keys, i: int, terms: dict[int, int]) -> dict[int, int]:
    """The Demazure-Lusztig operator T_i with parameter q^-1,

        T f = q^-1 s(f) + (1 - q^-1) (f - s(f)) / (e^alphavee - 1),

    on the extended lattice, on point keys -> t-ints of the lifts.  With k
    = <alpha_i, y> and M = keys.moves[i], y - j alphavee_i has the key K +
    j M, K the key of y.  T of the lift c at K is, with d = c (1 - q^-1):
    d at K + j M for j = 1..k-1 and c at K + k M when k > 0; c q^-1 at K +
    k M, less d at K + j M for j = k+1..0, when k < 0; c q^-1 at K when k =
    0.  A factor q^-1 shifts a t-int up one digit.  No zero is kept."""
    shift, mask, bias, move, width = i * keys.slot, keys.mask, keys.bias, keys.moves[i], keys.width
    out: dict[int, int] = {}
    get = out.get
    for key, c in terms.items():
        k = (key >> shift & mask) - bias
        if k > 0:
            d = c - (c << width)
            for moved in range(key + move, key + k * move, move):
                out[moved] = get(moved, 0) + d
            key += k * move
            out[key] = get(key, 0) + c
        elif k < 0:
            lowered = c << width
            reflected = key + k * move
            out[reflected] = get(reflected, 0) + lowered
            d = c - lowered
            for moved in range(key, reflected, -move):
                out[moved] = get(moved, 0) - d
        else:
            out[key] = get(key, 0) + (c << width)
    return {key: c for key, c in out.items() if c}


def _walk(d: RootDatum, lam: Vec, p: Vec) -> tuple[_Keys, dict[int, int]]:
    """S(lambda) on the extended lattice as point keys -> t-ints of the lifts
    (``_Keys``), no zero kept, walked as the module docstring says: each
    partial sum is dropped after its last step, and the lift at lambda must
    be exactly 1.

    The digits are ``_SLOT`` bits wide unless a bound says they may not
    fit.  T_i sends c at a point of pairing k to terms of norm sum_j |c_j|
    at most (2|k| + 1) times that of c in all, and |k| <= K = <2 rho,
    lambda> (``_Keys``).  So a partial sum l steps from lambda has norm at
    most (2K + 1)^l, and every digit of the total at most |W lambda| (2K +
    1)^L, L the deepest level of the walk; past half a ``_SLOT``-bit digit,
    the width is ``pack_slot`` of that bound.  Ints are exact, so only the
    total's digits need fit."""
    steps = list(orbit_walk(d, lam))
    last, level = {}, {lam: 0}
    for n, (mu, _, nu) in enumerate(steps):
        last[mu] = n
        level[nu] = level[mu] + 1
    bound = len(level) * (2 * dot(positive_root_sum(d), lam) + 1) ** max(level.values())
    keys = _Keys(d, lam, p, _SLOT if bound < _HALF else pack_slot(bound))
    parts = {lam: {keys.start: 1}}
    total = {keys.start: 1}
    get = total.get
    for n, (mu, i, nu) in enumerate(steps):
        part = _step(keys, i, parts.pop(mu) if last[mu] == n else parts[mu])
        if nu in last:
            parts[nu] = part
        for key, c in part.items():
            total[key] = get(key, 0) + c
    total = {key: c for key, c in total.items() if c}
    if total.get(keys.start) != 1:
        raise RuntimeError(f"internal: leading coefficient at {lam} is not 1")
    return keys, total


def _fill(d: RootDatum, slot: int, dominant: Iterable[tuple[int, int]]) -> dict[int, int]:
    """A dot-invariant element, point keys at slot -> t-ints of the lifts,
    from its dominant terms: a lift is constant on its W-orbit, walked from
    the dominant key as ``orbit_walk`` walks it, from a key of digit k =
    <alpha_i, y> > 0 to that key + k moves[i] (``_key_table``)."""
    bias, mask, moves, _ = _key_table(d, slot)
    shifts = [(i * slot, move) for i, move in enumerate(moves)]
    out = dict(dominant)
    queue = list(out)
    for point in queue:  # the queue grows as it is read
        t = out[point]
        for shift, move in shifts:
            k = (point >> shift & mask) - bias
            if k > 0:
                moved = point + k * move
                if moved not in out:
                    out[moved] = t
                    queue.append(moved)
    return out


class _Image:
    """A cached class image: the representative rep of the class, its slot
    in ``_peel_keys``, the sum and the largest of the norms of its
    coefficients, and its dominant items there, the packed pairings of each
    dominant term -> the t-int of its lift, one per W-orbit, which fix the
    image.  A peel at a slot as wide or wider reads the dominant items of
    each image it peels, and the whole views of its two factors, kept in
    ``filled``.  S(rep) is decoded from the dominant items when read."""

    __slots__ = ("datum", "rep", "slot", "norm", "peak", "dominant", "filled", "_image")

    def __init__(self, d: RootDatum, rep: Vec, slot: int, dominant: tuple[tuple[int, int], ...],
                 norm: int, peak: int):
        self.datum = d
        self.rep = rep
        self.slot = slot
        self.norm = norm
        self.peak = peak
        self.dominant = dominant
        self.filled: dict[int, dict[int, int]] = {}
        self._image = None

    @property
    def image(self) -> SphericalFunction:
        """S(rep) by its dominant coefficients, each decoded from its lift q^h
        c at the depth h of its point."""
        if self._image is None:
            lifts, below = dict(self.dominant), _peel_keys(self.datum, self.rep)[1]
            points, _, depths = _dominant_below(self.datum, self.rep)
            terms = {nu: t_laurent(lifts[key], -depth, self.peak)[0]
                     for nu, depth, key in zip(points, depths, below) if key in lifts}
            self._image = SphericalFunction(self.datum, GroupAlgebraElement._make(self.datum.rank, terms))
        return self._image

    def dominant_at(self, slot: int) -> tuple[tuple[int, int], ...]:
        """The dominant items keyed at slot, at least the own slot: a wider
        key packs its point's pairings in ``_dominant_below``, no unpack."""
        if slot == self.slot:
            return self.dominant
        lifts, keys = dict(self.dominant), _peel_keys(self.datum, self.rep)[1]
        return tuple([(pack(p, slot), lifts[key])
                      for p, key in zip(_dominant_below(self.datum, self.rep)[1], keys) if key in lifts])

    def whole(self, slot: int) -> dict[int, int]:
        """The whole view at slot, every term's peel key -> its lift, filled
        on its first read and kept, for a peel that reads rep as a factor."""
        if slot not in self.filled:
            biases = _key_table(self.datum, slot)[3]
            whole = _fill(self.datum, slot, [(key + biases, t) for key, t in self.dominant_at(slot)])
            self.filled[slot] = {point - biases: t for point, t in whole.items()}
        return self.filled[slot]


def _build(d: RootDatum, lam: Vec, p: Vec) -> _Image:
    """Walk and check the image of the dominant coweight lambda, and keep
    its dominant items, with no decode.

    The checks run on the keys.  A dominant term lies below lambda exactly
    when its peel key, the point less ``keys.dominant``, is one in
    ``_peel_keys``.  The dot step of s_i sends the lift at e^(y, -h) to
    e^(s_i y, -h - k), k = <alpha_i, y>, the key plus k moves[i], so the
    image is dot-invariant exactly when the walk is the ``_fill`` of its
    dominant terms.  Each distinct lift is unpacked once, for its exact
    norm sum_i |c_i|, and a dominant one of a wider walk once more, for its
    t-int at ``_SLOT`` bits."""
    keys, terms = _walk(d, lam, p)
    slot, width, dominant = keys.slot, keys.width, keys.dominant
    below = set(_peel_keys(d, lam)[1])
    # the lift is equal on each W-orbit: one norm per orbit
    tops, norms = [], {}
    norm = peak = 0
    for point, t in terms.items():
        n = norms.get(t)
        if n is None:
            n = norms[t] = sum(map(abs, unpack(t, width)))
        norm += n
        if n > peak:
            peak = n
        if point & dominant == dominant:
            if point - dominant not in below:
                raise RuntimeError(f"internal: image of {lam} has dominant support at pairings "
                                   f"{keys.pairings(point)} not below it")
            tops.append((point, t))
    if _fill(d, slot, tops) != terms:
        raise RuntimeError(f"internal: image of {lam} is not dot-invariant")
    if width != _SLOT:
        tops = [(point, pack(unpack(t, width), _SLOT)) for point, t in tops]
    return _Image(d, lam, slot, tuple([(point - dominant, t) for point, t in tops]), norm, peak)


def satake_image_extended(dd: LanglandsDualData, lam: Sequence[int]) -> GroupAlgebraElement:
    """The image on the extended lattice, before restriction: a term c e^y
    of S(lambda) lifts to q^h c e^(y, -h), h = <rho, lambda - y> the sum of
    the coroot coordinates of lambda - y, as the extended coroots are
    (alphavee, 1).  Every delta-exponent is an integer by construction, and
    the coefficient of e^(lambda, 0) is exactly 1."""
    lam = int_vector(lam)
    two_rho = positive_root_sum(dd.base)
    terms = {}
    for y, c in satake_image(dd, lam).poly.items():
        h = dot(two_rho, vec_sub(lam, y)) // 2
        terms[lift_exponent(y, -h)] = c.shift(h)
    return GroupAlgebraElement._make(dd.ext.rank, terms)


# (datum, pairings) -> the class image at rep, the first coweight of the class asked for
_images: dict[tuple[LanglandsDualData, Vec], _Image] = {}


def _class_image(dd: LanglandsDualData, lam: Vec, p: Vec) -> _Image:
    """The cached image of the class of the dominant coweight lambda; a new
    class is built and checked at rep = lambda."""
    key = (dd, p)
    entry = _images.get(key)
    if entry is None:
        entry = _images[key] = _build(dd.base, lam, p)
    return entry


def satake_image(dd: LanglandsDualData, lam: Sequence[int]) -> SphericalFunction:
    """Spherical expansion of a dominant coweight, restricted to the fiber.

    Coefficients land in Z[q, q^-1]; the result is invariant under the
    twisted Weyl action and its coefficient at e^lambda is 1.
    """
    lam = int_vector(lam)
    p = pairings(dd.base, lam)
    require_dominant_pairings(lam, p)
    entry = _class_image(dd, lam, p)
    if entry.rep == lam:
        return entry.image
    return SphericalFunction(dd.base, entry.image.dominant.shift(vec_sub(lam, entry.rep)))


class HeckeExpansion(FrozenRecord):
    """Coefficients of a product of basis elements: a map from dominant
    coweights to Z[q, q^-1], with no zero entries stored.  Each key is read
    by ``require_dominant``, which refuses a wrong rank or a key that is not
    dominant, and each coefficient as ``GroupAlgebraElement`` reads one.
    Equality reads the coefficients alone, so an expansion is unhashable."""

    _fields = ("datum", "coeffs")

    def __init__(self, datum: RootDatum, coeffs: Mapping[Sequence[int], Laurent]):
        checked = {}
        for v, c in coeffs.items():
            v = require_dominant(datum, v)
            c = c if isinstance(c, Laurent) else Laurent.term(as_int(c))
            if not c.is_zero():
                checked[v] = c
        self._init(datum, checked)

    @classmethod
    def _make(cls, datum: RootDatum, coeffs: dict[Vec, Laurent]) -> "HeckeExpansion":
        # trusted constructor: int tuple keys of the datum's rank, no zero
        self = object.__new__(cls)
        fields = self.__dict__
        fields["datum"] = datum
        fields["coeffs"] = coeffs
        return self

    def get(self, nu: Sequence[int]) -> Laurent:
        nu = int_vector(nu)
        pairings(self.datum, nu)  # refuses a wrong rank
        return self.coeffs.get(nu, Laurent.zero())

    def items(self) -> list[tuple[Vec, Laurent]]:
        return sorted(self.coeffs.items(), key=lambda kv: coweight_order_key(self.datum, kv[0]))

    def __eq__(self, other):
        return isinstance(other, HeckeExpansion) and self.coeffs == other.coeffs

    def __str__(self):
        body = ", ".join(f"e[{','.join(str(x) for x in v)}]: {c}" for v, c in self.items())
        return "{" + body + "}"


# (datum, pairings, pairings) -> _peel at the representatives of two
# classes, their pairings in sorted order
_expansions: dict[tuple[LanglandsDualData, Vec, Vec], tuple[Vec, tuple[tuple[Vec, Laurent], ...]]] = {}

# (t-int, depth h) -> t_laurent of the t-int at q^-h: each peeled coefficient
# decoded once, read only under a peel's bound
_decoded: dict[tuple[int, int], tuple[Laurent, int]] = {}


def structure_polynomials(dd: LanglandsDualData, lam: Sequence[int], mu: Sequence[int]) -> HeckeExpansion:
    """Expand the product of two basis images in the basis again.

    The expansion is peeled once per unordered pair of classes modulo the
    centre, at their representatives, and shifted to the pair asked for.
    """
    d = dd.base
    lam = int_vector(lam)
    mu = int_vector(mu)
    if len(lam) != d.rank or len(mu) != d.rank:
        for v in (lam, mu):
            pairings(d, v)  # refuses the wrong rank
    # the datum of dual data is valid, so its simple roots have its rank and
    # each pairing is read from them with no further check
    mul = operator.mul
    p_lam = tuple([sum(map(mul, alpha, lam)) for alpha in d.simple_roots])
    p_mu = tuple([sum(map(mul, alpha, mu)) for alpha in d.simple_roots])
    top = vec_add(lam, mu)
    if min(p_lam, default=0) < 0 or min(p_mu, default=0) < 0:
        # top is dominant when both are; a refusal names top first
        for v, p in ((top, vec_add(p_lam, p_mu)), (lam, p_lam), (mu, p_mu)):
            require_dominant_pairings(v, p)
    key = (dd, p_lam, p_mu) if p_lam <= p_mu else (dd, p_mu, p_lam)
    entry = _expansions.get(key)
    if entry is None:
        entry = _expansions[key] = _peel(dd, lam, p_lam, mu, p_mu)
    top0, items = entry
    if top == top0:
        return HeckeExpansion._make(d, dict(items))
    z = vec_sub(top, top0)
    add = operator.add  # vec_add inlined: one shift per term of every hit
    return HeckeExpansion._make(d, {tuple(map(add, nu, z)): c for nu, c in items})


def _peel(dd: LanglandsDualData, lam: Vec, p_lam: Vec, mu: Vec,
          p_mu: Vec) -> tuple[Vec, tuple[tuple[Vec, Laurent], ...]]:
    """(top, expansion of S(lambda0) S(mu0)), lambda0 and mu0 the cached
    representatives of the classes of two dominant coweights lambda and mu
    with pairings p_lam and p_mu, and top = lambda0 + mu0.

    The product's coefficients are computed at the dominant coweights nu <=
    lambda+mu alone, and peeled there in decreasing dominance order from a
    residual map, with unit coefficient at the top.  The residual must end
    at zero on every one of those points; with the build's checks and the
    dot action a ring automorphism, the whole remainder is then zero (module
    docstring).  A violation is reported as an internal error.

    Points, residual and images are keyed by their packed pairings at the
    slot of top, which reads the whole views of the two factors and the
    dominant items of each peeled image, and coefficients are the t-ints of
    their lifts, read under the peel's bound (module docstring).
    """
    d = dd.base
    s_lam = _class_image(dd, lam, p_lam)
    s_mu = _class_image(dd, mu, p_mu)
    top = vec_add(s_lam.rep, s_mu.rep)
    points, point_pairings, depths = _dominant_below(d, top)
    slot, keys = _peel_keys(d, top)
    residual = product_coefficients(s_lam.whole(slot), s_mu.whole(slot), keys)
    # a bound on the norm of every residual value, checked as soon as it
    # grows, so that each read below (the zero test, the decode and the
    # last test) happens under it
    bound = min(s_lam.norm * s_mu.peak, s_mu.norm * s_lam.peak)
    require_digits_fit(bound)
    coeffs: dict[Vec, Laurent] = {}
    images, decoded, get = _images, _decoded, residual.get
    for nu, p, h, k in zip(points, point_pairings, depths, keys):
        n = get(k)
        if not n:
            continue
        found = decoded.get((n, h))
        if found is None:
            found = decoded[n, h] = t_laurent(n, -h, bound)
        coeffs[nu], norm = found
        image = images.get((dd, p)) or _class_image(dd, nu, p)
        bound += norm * image.peak
        if bound >= _HALF:
            require_digits_fit(bound)
        # a term y of S(rep) lands at y + nu - rep, which has its pairings
        add_products_into(residual, -n, image.dominant if image.slot == slot else image.dominant_at(slot))
    if any(residual.values()):
        raise RuntimeError("internal: nonzero residual at a dominant point after peeling")
    if coeffs.get(top) != Laurent.one():
        raise RuntimeError("internal: top coefficient is not 1")
    return top, tuple(coeffs.items())


# ---------------------------------------------------------------------------
# the regular-tree oracle for the rank-one adjoint datum


def tree_structure_constants(m: int, n: int, q: int,
                             depth_cap: int = DEFAULT_TREE_DEPTH_CAP) -> dict[int, int]:
    """Counts on the (q+1)-regular tree, from paths counted by leading zeros.

    For vertices u, v at distance d, counts the w with dist(u, w) = m and
    dist(w, v) = n.  Returns one count per admissible distance d, i.e.
    |m - n| <= d <= m + n with d = m + n (mod 2).

    A vertex w of the sphere of radius m about u is its non-backtracking
    path from u: q + 1 choices for the first step, q for each later one.
    Taking v to be the all-zero path of length d, the paths to w and to v
    share their first min(z, d) steps, z the number of leading zeros of
    w's path, so dist(w, v) = m + d - 2 min(z, d).  Each argument is read
    by ``as_int``.
    """
    m, n, q, depth_cap = map(as_int, (m, n, q, depth_cap))
    if q < 2:
        raise ValidationError("tree oracle needs q >= 2")
    if m < 0 or n < 0:
        raise ValidationError("sphere radii must be nonnegative")
    depth = m + n
    if depth > depth_cap:
        raise CapExceededError(f"tree depth {depth} exceeds the cap of {depth_cap}")
    zeros = _leading_zero_histogram(m, q)
    return {d: sum(count for z, count in zeros if m + d - 2 * min(z, d) == n)
            for d in range(abs(m - n), m + n + 1, 2)}


def _leading_zero_histogram(m: int, q: int) -> list[tuple[int, int]]:
    """(z, count) pairs: how many non-backtracking paths of length m from a
    vertex of the (q+1)-regular tree start with exactly z zero steps.  The
    first nonzero step has q choices at the start and q - 1 after a zero,
    and every later step q (Serre, Trees, II.1)."""
    if m == 0:
        return [(0, 1)]
    return [(0, q ** m)] + [(z, (q - 1) * q ** (m - z - 1)) for z in range(1, m)] + [(m, 1)]


class OracleEntry(FrozenRecord):
    __slots__ = _fields = ("m", "n", "d", "exponent", "tree_count", "algebra_value",
                           "rescaled_integral")

    def __init__(self, m: int, n: int, d: int, exponent: int, tree_count: int,
                 algebra_value: Fraction, rescaled_integral: bool):
        self._init(m, n, d, exponent, tree_count, algebra_value, rescaled_integral)

    @property
    def ok(self) -> bool:
        return (self.algebra_value == self.tree_count
                and self.exponent >= 0
                and self.exponent % 2 == 0
                and self.rescaled_integral)


class OracleReport(FrozenRecord):
    __slots__ = _fields = ("q", "max_height", "entries")

    def __init__(self, q: int, max_height: int, entries: tuple[OracleEntry, ...]):
        self._init(q, max_height, entries)

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
    max_height, refused up front when it exceeds depth_cap.  Each argument
    is read by ``as_int``.
    """
    q0, max_height, depth_cap = map(as_int, (q0, max_height, depth_cap))
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
