"""Exact arithmetic on integer lattices and sparse group-algebra elements.

Lattices are always presented as Z^n with the standard dot product as the
pairing between a lattice and its dual, so duality is literally "swap the
two vector lists" and no separate pairing type is needed.

Two kinds of values live here:

* ``Laurent``: integer Laurent polynomials in one variable q, stored as a
  sparse map from q-exponent to integer coefficient.
* ``GroupAlgebraElement``: finitely supported Z[q,q^-1]-combinations of
  lattice monomials e^v with v in Z^n; the carrier for spherical functions
  and characters of dual-group representations.  Every operation that can
  make two terms meet at one exponent (sum, difference, product, a linear
  map of the exponents, restriction to the fibre over q, and the
  Demazure-Lusztig and dot actions downstream) sums its terms through one
  routine, ``GroupAlgebraElement.collect``, which stores no zero.

Integer matrices are plain tuples of row tuples.  The module also provides
the exact linear algebra used elsewhere, on two elimination routines.
Determinants, unimodular inverses, rational solving and ranks run on one
fraction-free Gauss-Jordan routine over Q (``_row_reduce``); integer linear
solving runs on the Smith normal form with unimodular transforms
(``smith_normal_form``), over Z.

Everything is immutable after construction and every operation is pure,
so all of this is safe to use concurrently.  No floating point enters:
the sign phenomena downstream are statements about exact q-exponents.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import RankMismatchError

Vec = tuple[int, ...]
IntMatrix = tuple[Vec, ...]


# ---------------------------------------------------------------------------
# vectors and integer matrices


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


def solve_rational(columns: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[tuple[Fraction, ...]]:
    """Solve sum_j c_j * columns[j] = target over Q.

    Returns one solution, or None when the system is inconsistent.  When the
    columns are linearly independent the solution is unique.
    """
    k = len(columns)
    rows = [[col[i] for col in columns] + [x] for i, x in enumerate(target)]
    pivots, _ = _row_reduce(rows, k)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * k
    for row, c in zip(rows, pivots):
        sol[c] = Fraction(row[k], row[c])
    return tuple(sol)


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
    assert mat_mul(mat_mul(st, tuple(tuple(r) for r in mat)), tt) == d
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
    """Integer Laurent polynomial in one variable, as {exponent: coefficient}.

    Zero coefficients are never stored, so representations are unique and
    equality is structural.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._coeffs = {int(k): int(v) for k, v in (coeffs or {}).items() if v}

    @classmethod
    def _make(cls, coeffs: dict) -> "Laurent":
        # trusted constructor: integer keys and values, no zeros stored
        self = object.__new__(cls)
        self._coeffs = coeffs
        return self

    @classmethod
    def zero(cls) -> "Laurent":
        return cls._make({})

    @classmethod
    def one(cls) -> "Laurent":
        return cls._make({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "Laurent":
        return cls({exp: coeff})

    @classmethod
    def q_power(cls, exp: int) -> "Laurent":
        return cls({exp: 1})

    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def _coerce(self, other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, int):
            return Laurent({0: other})
        return NotImplemented

    def _add(self, other, sign: int):
        # self + sign * other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            s = out.get(k, 0) + sign * v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Laurent._make(out)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Laurent._make({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # one term c*q^k: a shift and a scale, nothing cancels
            (k2, v2), = b.items()
            return Laurent._make({k1 + k2: v1 * v2 for k1, v1 in a.items()})
        out: dict[int, int] = {}
        self.add_product_into(other, out)
        return Laurent._make({k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def add_product_into(self, other: "Laurent", acc: dict[int, int]) -> None:
        """acc += self * other, on a plain {exponent: coefficient} dict.

        Entries that cancel stay behind as zeros; Laurent(acc) drops them.
        """
        get = acc.get
        b = other._coeffs.items()
        for k1, v1 in self._coeffs.items():
            for k2, v2 in b:
                k = k1 + k2
                acc[k] = get(k, 0) + v1 * v2

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    def __bool__(self):
        return bool(self._coeffs)

    def shift(self, exp: int) -> "Laurent":
        """Multiply by q^exp."""
        return Laurent._make({k + exp: v for k, v in self._coeffs.items()})

    def substitute_inverse(self) -> "Laurent":
        """Substitute q -> q^-1."""
        return Laurent._make({-k: v for k, v in self._coeffs.items()})

    def evaluate(self, x: Fraction) -> Fraction:
        if any(k < 0 for k in self._coeffs) and x == 0:
            raise ZeroDivisionError("negative q-power evaluated at 0")
        return sum((Fraction(v) * Fraction(x) ** k for k, v in self._coeffs.items()),
                   Fraction(0))

    def to_str(self, var: str = "q") -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for exp, coeff in sorted(self._coeffs.items(), reverse=True):
            if exp == 0:
                body = str(abs(coeff))
            else:
                power = var if exp == 1 else f"{var}^{exp}"
                body = power if abs(coeff) == 1 else f"{abs(coeff)}*{power}"
            parts.append(("-" if coeff < 0 else "+", body))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Laurent({self.to_str()})"


# ---------------------------------------------------------------------------
# sparse group-algebra elements on a lattice


class GroupAlgebraElement:
    """Element of Z[q,q^-1][Z^rank]: a finite sum of terms coeff * e^v."""

    __slots__ = ("rank", "_terms")

    def __init__(self, rank: int, terms: Mapping[Vec, Laurent | int] | None = None):
        self.rank = rank
        store: dict[Vec, Laurent] = {}
        for v, c in (terms or {}).items():
            v = tuple(int(x) for x in v)
            if len(v) != rank:
                raise RankMismatchError(f"exponent {v} in a rank-{rank} algebra")
            c = c if isinstance(c, Laurent) else Laurent.term(int(c))
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
        return self._terms.get(tuple(v), Laurent.zero())

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
        if isinstance(other, (int, Laurent)):
            return self.scale(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_rank(other)
        # one flat generator: per-row generators would bind v1, c1 late
        terms = ((vec_add(v1, v2), c1 * c2)
                 for v1, c1 in self._terms.items() for v2, c2 in other._terms.items())
        return GroupAlgebraElement.collect(self.rank, [terms])

    def __rmul__(self, other):
        if isinstance(other, (int, Laurent)):
            return self.scale(other)
        return NotImplemented

    def product_coefficients(self, other: "GroupAlgebraElement",
                             points: Sequence[Vec]) -> dict[Vec, dict[int, int]]:
        """Coefficients of self * other at the given points only, as the
        plain accumulators of ``Laurent.add_product_into`` (so they may hold
        zero entries).

        Each point costs one lookup per term of the smaller factor, instead
        of forming the whole product.  Points no pair of terms reaches are
        omitted.
        """
        self._check_rank(other)
        small, large = self._terms, other._terms
        if len(small) > len(large):
            small, large = large, small
        small_items = list(small.items())
        out: dict[Vec, dict[int, int]] = {}
        for v in points:
            acc: dict[int, int] = {}
            for y, c in small_items:
                d = large.get(tuple(map(operator.sub, v, y)))
                if d is not None:
                    c.add_product_into(d, acc)
            if acc:
                out[v] = acc
        return out

    def shift(self, v: Vec) -> "GroupAlgebraElement":
        """Multiply by the monomial e^v."""
        return GroupAlgebraElement._make(self.rank,
                                         {vec_add(y, v): c for y, c in self._terms.items()})

    def scale(self, c: Laurent | int) -> "GroupAlgebraElement":
        c = c if isinstance(c, Laurent) else Laurent.term(int(c))
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

    def to_str(self, var: str = "q") -> str:
        if not self._terms:
            return "0"
        parts = []
        for v, c in sorted(self._terms.items(), reverse=True):
            mono = "e[" + ",".join(str(x) for x in v) + "]" if any(v) else ""
            coeff_items = c.items()
            if len(coeff_items) > 1:
                body = f"({c.to_str(var)})"
                parts.append(("+", f"{body}*{mono}" if mono else body))
                continue
            exp, coeff = coeff_items[0]
            sign = "-" if coeff < 0 else "+"
            scalar = Laurent({exp: abs(coeff)})
            if not mono:
                parts.append((sign, scalar.to_str(var)))
            elif scalar == Laurent.one():
                parts.append((sign, mono))
            else:
                parts.append((sign, f"{scalar.to_str(var)}*{mono}"))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"GroupAlgebraElement({self.to_str()})"
