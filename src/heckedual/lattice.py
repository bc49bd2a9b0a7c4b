"""Exact arithmetic on integer lattices and sparse group-algebra elements.

Lattices are always presented as Z^n with the standard dot product as the
pairing between a lattice and its dual, so duality is literally "swap the
two vector lists" and no separate pairing type is needed.

Two kinds of values live here:

* ``Laurent``: integer Laurent polynomials in one variable q, each its
  lowest exponent and the tuple of its coefficients as Python ints, so sums
  and products are plain coefficient loops, exact at any size.
* ``GroupAlgebraElement``: finitely supported Z[q,q^-1]-combinations of
  lattice monomials e^v with v in Z^n; the carrier for spherical functions
  and characters of dual-group representations.  Every operation that can
  make two terms meet at one exponent (sum, difference, product, a linear
  map of the exponents, restriction to the fibre over q, and the
  Demazure-Lusztig and dot actions downstream) sums its terms through one
  routine, ``GroupAlgebraElement.collect``, which stores no zero.
* packed vectors: ``pack`` sends an integer vector v to the int
  sum_i v_i 2^(slot i), a Kronecker substitution, here on a linear image
  of the exponents of the group algebra (the peel packs the pairings
  of a coweight with the simple roots).  It is linear, so a difference or
  a shift is one int subtraction or add, and it is one to one while every
  coordinate is below 2^(slot-1) in absolute value; ``pack_slot`` gives the
  least whole number of bytes for a bound, and ``repack`` moves a packed
  vector to a wider slot.
* t-ints: a polynomial sum_i c_i t^i in t = q^-1 as the one int
  sum_i c_i 2^(64 i), with no lowest exponent beside it, the only packed
  polynomial here.  Sums and products of polynomials are sums and products
  of their ints, exactly, and a term c t^i is c shifted by i digits.
  ``t_laurent``, the one decoder, reads a t-int back into a Laurent, times
  a power of q, while a bound on the norms of what was summed and
  multiplied shows that every coefficient fits its digit
  (``require_digits_fit``).  The image walk builds the lift of each
  coefficient as a t-int from its monomials; the two routines of the peel
  downstream, ``product_coefficients`` and ``add_products_into``, take
  t-ints keyed by packed vectors, and the caller carries the bound.

Simple reflections are applied to vectors by ``reflect``, v - <a, v> b; no
reflection matrix is built.  Integer matrices are plain tuples of row
tuples.  The module also provides the exact linear algebra used elsewhere,
on two elimination routines.  Determinants, unimodular inverses and ranks
run on one fraction-free Gauss-Jordan routine (``_row_reduce``); linear
solving runs on the Smith normal form with unimodular transforms
(``smith_normal_form``), over Z.

Everything is immutable after construction and every operation is pure,
so all of this is safe to use concurrently.  No floating point enters:
the sign phenomena downstream are statements about exact q-exponents.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import RankMismatchError, ValidationError

Vec = tuple[int, ...]
IntMatrix = tuple[Vec, ...]


# ---------------------------------------------------------------------------
# vectors and integer matrices


def as_int(x) -> int:
    """An integer entry read by int(): a boolean, or a float or Fraction
    with a fractional part, is refused with a ValidationError, not
    truncated."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()) or (
            isinstance(x, Fraction) and x.denominator != 1):
        shown = json.dumps(x) if isinstance(x, (bool, float)) else str(x)
        raise ValidationError(f"expected an integer, got {shown}")
    return int(x)


def as_fraction(x) -> Fraction:
    """An exact rational entry: a Fraction as it is, an int as a Fraction.
    A boolean, a float or anything else is refused with a ValidationError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    shown = json.dumps(x) if isinstance(x, (bool, float)) else repr(x)
    raise ValidationError(f"expected a Fraction or an int, got {shown}")


def fraction_monomial(pairs: Iterable[tuple[int, int]], exponents: Iterable[int]) -> Fraction:
    """prod (n/d)^e over pre-read (numerator, denominator) int pairs and int
    exponents e, as one Fraction: numerators and denominators multiply as
    ints, swapped where e < 0, and only the product is put in lowest terms.
    A caller that evaluates many monomials in the same values reads their
    pairs once."""
    num = den = 1
    for (n, d), e in zip(pairs, exponents):
        if e > 0:
            num *= n ** e
            den *= d ** e
        elif e:
            num *= d ** -e
            den *= n ** -e
    return Fraction(num, den)


def int_vector(v: Iterable) -> Vec:
    """v as a tuple of ints, its entries read by ``as_int`` in one pass."""
    return tuple([x if type(x) is int else as_int(x) for x in v])


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    """Standard pairing of a lattice vector with a dual-lattice vector."""
    if len(x) != len(y):
        raise RankMismatchError(f"pairing of vectors of ranks {len(x)} and {len(y)}")
    return sum(map(operator.mul, x, y))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(map(operator.add, x, y))


def vec_sub(x: Vec, y: Vec) -> Vec:
    return tuple(map(operator.sub, x, y))


def vec_scale(c: int, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def vec_sub_scaled(x: Vec, c: int, y: Vec) -> Vec:
    """x - c*y."""
    return tuple([a - c * b for a, b in zip(x, y)])


def reflect(v: Vec, a: Vec, b: Vec) -> Vec:
    """v - <a, v> b: the simple reflection of root a, coroot b on a coweight
    v; with a the coroot and b the root, on a weight v."""
    return vec_sub_scaled(v, dot(a, v), b)


def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_apply(m: IntMatrix, v: Sequence[int]) -> Vec:
    if m and len(m[0]) != len(v):
        raise RankMismatchError(f"matrix of width {len(m[0])} applied to rank {len(v)}")
    return tuple(dot(row, v) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = mat_transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_transpose(m: IntMatrix) -> IntMatrix:
    if not m:
        return ()
    return tuple(zip(*m))


def _row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Gauss-Jordan elimination of integer rows on their first ncols columns,
    in place and fraction-free (Bareiss).

    Any further columns ride along as an augmented block.  Returns the pivot
    columns and the determinant of the first ncols columns when they are
    square (zero when a column has no pivot).  Afterwards every row is d
    times the row that Gauss-Jordan over Q leaves, d being the common value
    at the pivots.  Each entry stays a minor of the input, so every
    division is exact.
    """
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(ncols):
        r = len(pivots)
        for p in range(r, len(rows)):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
        pivots.append(c)
    return pivots, sign * prev if len(pivots) == ncols else 0


def mat_det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix, exactly."""
    return _row_reduce([list(row) for row in m], len(m))[1]


def mat_inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix with determinant +-1."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    _, det = _row_reduce(aug, n)
    if det not in (1, -1):
        raise ValueError(f"matrix of determinant {det} is not unimodular")
    # the left block is now d * I with d = +-1, and 1/d = d
    return tuple(tuple(row[i] * x for x in row[n:]) for i, row in enumerate(aug))


def int_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the span of the given vectors."""
    if not vectors:
        return 0
    return len(_row_reduce([list(v) for v in vectors], len(vectors[0]))[0])


# ---------------------------------------------------------------------------
# Smith normal form and integer linear systems


def smith_normal_form(mat: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize an integer matrix, returning (D, S, T) with D = S*M*T.

    S and T are unimodular and the diagonal of D satisfies d1 | d2 | ... with
    nonnegative entries.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [list(r) for r in mat]
    s = [list(r) for r in mat_identity(rows)]
    t = [list(r) for r in mat_identity(cols)]

    def row_sub(i, k, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        s[i] = [x - q * y for x, y in zip(s[i], s[k])]

    def col_sub(j, k, q):
        for row in a:
            row[j] -= q * row[k]
        for row in t:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        s[i], s[k] = s[k], s[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in t:
            row[j], row[k] = row[k], row[j]

    p = 0
    while p < min(rows, cols):
        best = None
        for i in range(p, rows):
            for j in range(p, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        if best is None:
            break
        _, i0, j0 = best
        if i0 != p:
            swap_rows(p, i0)
        if j0 != p:
            swap_cols(p, j0)
        clean = False
        while not clean:
            clean = True
            for i in range(p + 1, rows):
                if a[i][p]:
                    q = a[i][p] // a[p][p]
                    row_sub(i, p, q)
                    if a[i][p]:
                        swap_rows(p, i)
                        clean = False
            for j in range(p + 1, cols):
                if a[p][j]:
                    q = a[p][j] // a[p][p]
                    col_sub(j, p, q)
                    if a[p][j]:
                        swap_cols(p, j)
                        clean = False
        bad = None
        for i in range(p + 1, rows):
            for j in range(p + 1, cols):
                if a[i][j] % a[p][p]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row into the pivot row and redo this step
            a[p] = [x + y for x, y in zip(a[p], a[bad])]
            s[p] = [x + y for x, y in zip(s[p], s[bad])]
            continue
        if a[p][p] < 0:
            a[p] = [-x for x in a[p]]
            s[p] = [-x for x in s[p]]
        p += 1

    d = tuple(tuple(r) for r in a)
    st = tuple(tuple(r) for r in s)
    tt = tuple(tuple(r) for r in t)
    if mat_mul(mat_mul(st, tuple(tuple(r) for r in mat)), tt) != d:
        raise RuntimeError("internal: Smith normal form fails S M T = D")
    return d, st, tt


def solve_integer_linear(mat: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Solve M*x = rhs over the integers.

    Returns (particular, kernel_basis) or None when no integral solution
    exists.  The kernel basis generates all homogeneous solutions.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    d, s, t = smith_normal_form(mat)
    c = mat_apply(s, tuple(rhs))
    y = [0] * cols
    rank = 0
    for i in range(min(rows, cols)):
        if d[i][i]:
            rank += 1
    for i in range(rows):
        if i < rank:
            if c[i] % d[i][i]:
                return None
            y[i] = c[i] // d[i][i]
        elif c[i]:
            return None
    t_cols = mat_transpose(t)
    particular = mat_apply(t, tuple(y))
    kernel = tuple(t_cols[j] for j in range(rank, cols))
    return particular, kernel


# ---------------------------------------------------------------------------
# Laurent polynomials in q


class Laurent:
    """Integer Laurent polynomial in one variable.

    sum_k c_k q^k is stored as lo, its lowest exponent, and the tuple
    (c_lo, c_lo+1, ..., c_hi) of Python ints, whose first and last entries
    are nonzero.  The zero polynomial is lo = 0 and (), so representations
    are unique and equality is structural.  Sums and products are plain
    loops over the coefficients, exact at any size.
    """

    __slots__ = ("_lo", "_coeffs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        terms = [(k, v) for k, v in map(int_vector, (coeffs or {}).items()) if v]
        lo = min((k for k, _ in terms), default=0)
        out = [0] * (max((k for k, _ in terms), default=lo) - lo + 1)
        for k, v in terms:
            out[k - lo] += v
        self._lo, self._coeffs = _normal(lo, out)

    @classmethod
    def _make(cls, lo: int, coeffs: tuple[int, ...]) -> "Laurent":
        # trusted constructor: coeffs has nonzero ends, and lo is 0 when it is ()
        self = object.__new__(cls)
        self._lo = lo
        self._coeffs = coeffs
        return self

    @classmethod
    def zero(cls) -> "Laurent":
        return cls._make(0, ())

    @classmethod
    def one(cls) -> "Laurent":
        return cls._make(0, (1,))

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "Laurent":
        return cls({exp: coeff})

    @classmethod
    def q_power(cls, exp: int) -> "Laurent":
        return cls._make(exp, (1,))

    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> list[tuple[int, int]]:
        return [(k, c) for k, c in enumerate(self._coeffs, self._lo) if c]

    def min_exp(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no exponents")
        return self._lo

    def _coerce(self, other):
        """A scalar operand as a Laurent: an int, float or Fraction is read by
        ``as_int``, which refuses a bool or a fractional value."""
        if isinstance(other, Laurent):
            return other
        if isinstance(other, (int, float, Fraction)):
            return Laurent({0: other})
        return NotImplemented

    def _add(self, other, sign: int):
        # self + sign * other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        la, lb = self._lo, other._lo
        lo = min(la, lb)
        out = [0] * (max(la + len(a), lb + len(b)) - lo)
        out[la - lo:la - lo + len(a)] = a
        for i, c in enumerate(b, lb - lo):
            out[i] += sign * c
        return Laurent._make(*_normal(lo, out))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Laurent._make(self._lo, tuple([-c for c in self._coeffs]))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Laurent.zero()
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            out = [a[0] * y for y in b]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    out[j] += x * y
        # each end is the product of two nonzero ends, so nonzero
        return Laurent._make(self._lo + other._lo, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, bool):
            # as_int refuses a bool, which hashes like 0 or 1: unequal, not an error
            return NotImplemented
        try:
            other = self._coerce(other)
        except ValidationError:
            return False  # a fractional value, which as_int refuses
        if other is NotImplemented:
            return NotImplemented
        return self._lo == other._lo and self._coeffs == other._coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes like it
        if self._lo or len(self._coeffs) > 1:
            return hash((self._lo, self._coeffs))
        return hash(self._coeffs[0]) if self._coeffs else 0

    def __bool__(self):
        return not self.is_zero()

    def shift(self, exp: int) -> "Laurent":
        """Multiply by q^exp."""
        if not self._coeffs:
            return self
        return Laurent._make(self._lo + exp, self._coeffs)

    def evaluate(self, x: Fraction) -> Fraction:
        terms = self.items()
        if terms and terms[0][0] < 0 and x == 0:
            raise ZeroDivisionError("negative q-power evaluated at 0")
        return sum((Fraction(v) * Fraction(x) ** k for k, v in terms), Fraction(0))

    def to_str(self) -> str:
        parts = []
        for exp, coeff in reversed(self.items()):
            if exp == 0:
                body = str(abs(coeff))
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                body = power if abs(coeff) == 1 else f"{abs(coeff)}*{power}"
            parts.append(("-" if coeff < 0 else "+", body))
        return _signed_sum(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Laurent({self.to_str()})"


def _signed_sum(parts: list[tuple[str, str]]) -> str:
    """Join (sign, body) pairs as "a - b + c", showing the first sign only
    when it is "-"; "0" when there are none."""
    if not parts:
        return "0"
    (sign, first), *rest = parts
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {body}" for s, body in rest)


def _normal(lo: int, coeffs: list[int]) -> tuple[int, tuple[int, ...]]:
    """q^lo (c_0 + c_1 q + ...) as Laurent stores it: the zeros at both ends
    of the coefficients dropped, and (0, ()) for zero."""
    i, j = 0, len(coeffs)
    while i < j and not coeffs[i]:
        i += 1
    while j > i and not coeffs[j - 1]:
        j -= 1
    return (lo + i, tuple(coeffs[i:j])) if i < j else (0, ())


# ---------------------------------------------------------------------------
# packed exponents and t-ints


def pack(v: Sequence[int], slot: int) -> int:
    """The Kronecker packing sum_i v_i 2^(slot i) of an integer vector.

    It is linear, pack(v - y) = pack(v) - pack(y), and one to one on the
    vectors whose coordinates are below 2^(slot-1) in absolute value."""
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


def repack(n: int, slot: int, wider: int) -> int:
    """pack(v, wider) for n = pack(v, slot), each |v_i| < 2^(slot-1): v is
    read back as the balanced digits of n, lowest first."""
    half, mask, v = 1 << (slot - 1), (1 << slot) - 1, []
    while n:
        v.append(((n + half) & mask) - half)
        n = (n - v[-1]) >> slot
    return pack(v, wider)


_SLOT = 64  # bits per digit of a t-int
_MASK = (1 << _SLOT) - 1
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
    digits = []
    while n:
        c = n & _MASK
        if c >= _HALF:
            c -= 1 << _SLOT
        n = (n - c) >> _SLOT
        digits.append(c)
    # the highest digit is nonzero, but the lowest may be 0: drop those
    while digits and not digits[0]:
        del digits[0]
        power -= 1
    digits.reverse()
    lo = power + 1 - len(digits) if digits else 0
    return Laurent._make(lo, tuple(digits)), sum(map(abs, digits))


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
# sparse group-algebra elements on a lattice


class GroupAlgebraElement:
    """Element of Z[q,q^-1][Z^rank]: a finite sum of terms coeff * e^v."""

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: Mapping[Vec, Laurent | int] | None = None):
        self.rank = rank
        store: dict[Vec, Laurent] = {}
        for v, c in (terms or {}).items():
            v = int_vector(v)
            if len(v) != rank:
                raise RankMismatchError(f"exponent {v} in a rank-{rank} algebra")
            c = c if isinstance(c, Laurent) else Laurent.term(as_int(c))
            if not c.is_zero():
                store[v] = c
        self._terms = store

    @classmethod
    def _make(cls, rank: int, terms: dict) -> "GroupAlgebraElement":
        # trusted constructor: tuple keys of the right rank, nonzero Laurents
        self = object.__new__(cls)
        self.rank = rank
        self._terms = terms
        return self

    @classmethod
    def collect(cls, rank: int,
                groups: Iterable[Iterable[tuple[Vec, Laurent]]]) -> "GroupAlgebraElement":
        """The sum of groups of (exponent, coefficient) terms, summed by
        exponent, with no zero sum stored.  Trusted like ``_make``: exponents
        are tuples of length rank and coefficients are nonzero Laurents."""
        out: dict[Vec, Laurent] = {}
        for terms in groups:
            for v, c in terms:
                if v in out:
                    c = out[v] + c
                    if not c:
                        del out[v]
                        continue
                out[v] = c
        return cls._make(rank, out)

    @classmethod
    def zero(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank, {(0,) * rank: Laurent.one()})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: Laurent | int = 1) -> "GroupAlgebraElement":
        exponent = tuple(exponent)
        return cls(len(exponent), {exponent: coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, v: Sequence[int]) -> Laurent:
        v = int_vector(v)
        if len(v) != self.rank:
            raise RankMismatchError(f"exponent {v} in a rank-{self.rank} algebra")
        return self._terms.get(v, Laurent.zero())

    def items(self) -> list[tuple[Vec, Laurent]]:
        return sorted(self._terms.items())

    def support(self) -> tuple[Vec, ...]:
        return tuple(sorted(self._terms))

    def _check_rank(self, other: "GroupAlgebraElement"):
        if self.rank != other.rank:
            raise RankMismatchError(f"ranks {self.rank} and {other.rank} differ")

    def __add__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_rank(other)
        return GroupAlgebraElement.collect(self.rank, (self._terms.items(), other._terms.items()))

    def __sub__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_rank(other)
        return GroupAlgebraElement.collect(
            self.rank, (self._terms.items(), ((v, -c) for v, c in other._terms.items())))

    def __neg__(self):
        return GroupAlgebraElement._make(self.rank, {v: -c for v, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction, Laurent)):
            return self.scale(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_rank(other)
        # one flat generator: per-row generators would bind v1, c1 late
        terms = ((vec_add(v1, v2), c1 * c2)
                 for v1, c1 in self._terms.items() for v2, c2 in other._terms.items())
        return GroupAlgebraElement.collect(self.rank, [terms])

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction, Laurent)):
            return self.scale(other)
        return NotImplemented

    def shift(self, v: Vec) -> "GroupAlgebraElement":
        """Multiply by the monomial e^v."""
        return GroupAlgebraElement._make(self.rank,
                                         {vec_add(y, v): c for y, c in self._terms.items()})

    def scale(self, c: Laurent | int) -> "GroupAlgebraElement":
        c = c if isinstance(c, Laurent) else Laurent.term(c)
        if c.is_zero():
            return GroupAlgebraElement._make(self.rank, {})
        return GroupAlgebraElement._make(self.rank,
                                         {v: cv * c for v, cv in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __hash__(self):
        return hash((self.rank, tuple(sorted((v, c) for v, c in self._terms.items()))))

    def apply_map(self, m: IntMatrix) -> "GroupAlgebraElement":
        """Push every exponent through an integer linear map (ring hom)."""
        terms = ((mat_apply(m, v), c) for v, c in self._terms.items())
        return GroupAlgebraElement.collect(len(m), [terms])

    def specialize_delta(self, index: int) -> "GroupAlgebraElement":
        """Restrict to the fiber over q: send the index-th exponent n to a
        factor q^n and drop that coordinate (a ring homomorphism)."""
        if not 0 <= index < self.rank:
            raise ValueError(f"invalid delta index {index} for rank {self.rank}")
        terms = ((v[:index] + v[index + 1:], c.shift(v[index])) for v, c in self._terms.items())
        return GroupAlgebraElement.collect(self.rank - 1, [terms])

    def to_str(self) -> str:
        parts = []
        for v, c in sorted(self._terms.items(), reverse=True):
            mono = "e[" + ",".join(str(x) for x in v) + "]" if any(v) else ""
            coeff_items = c.items()
            if len(coeff_items) > 1:
                body = f"({c})"
                parts.append(("+", f"{body}*{mono}" if mono else body))
                continue
            exp, coeff = coeff_items[0]
            sign = "-" if coeff < 0 else "+"
            scalar = Laurent({exp: abs(coeff)})
            if not mono:
                parts.append((sign, str(scalar)))
            elif scalar == Laurent.one():
                parts.append((sign, mono))
            else:
                parts.append((sign, f"{scalar}*{mono}"))
        return _signed_sum(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"GroupAlgebraElement({self.to_str()})"
