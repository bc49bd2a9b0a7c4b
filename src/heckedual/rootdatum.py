"""Based root data on Z^n: duality, Weyl groups, dominance order.

A datum is the quadruple (X, Y, simple roots, simple coroots) with X = Y =
Z^rank and the standard dot product as the pairing.  Duality swaps the two
vector lists.  The builtin registry covers simply connected, adjoint and
self-dual presentations in ranks one to three, which is enough to exercise
both values of the central sign downstream.

Facts about a datum are decided from its k simple roots: finite type from
the k leading principal minors of the Cartan matrix, and the positive roots
by reflecting upward from the simple roots.  The Weyl group is enumerated
only where its elements are wanted (`weyl_group`, `longest_element`,
`stabilizer_poincare`), under a cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from .errors import CapExceededError, RankMismatchError, ValidationError
from .lattice import (
    IntMatrix,
    Laurent,
    Vec,
    dot,
    int_rank,
    mat_apply,
    mat_det,
    mat_identity,
    mat_mul,
    mat_transpose,
    solve_integer_linear,
    solve_rational,
    vec_add,
    vec_scale,
    vec_sub,
)

DEFAULT_WEYL_CAP = 10 ** 6
_ROOT_CAP = 20000
_ISO_SEARCH_BOUND = 6  # kernel coefficients tried per direction by datum_isomorphic


@dataclass(frozen=True)
class RootDatum:
    """A based root datum presented on the lattice Z^rank.

    The name is a label only; it does not take part in equality, so dual
    presentations compare equal to builtins regardless of labeling.
    """

    rank: int
    simple_roots: tuple[Vec, ...]
    simple_coroots: tuple[Vec, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "simple_roots",
                           tuple(tuple(int(x) for x in v) for v in self.simple_roots))
        object.__setattr__(self, "simple_coroots",
                           tuple(tuple(int(x) for x in v) for v in self.simple_coroots))

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element with a reduced word and its two matrices.

    mat_x acts on X (weights), mat_y on Y (coweights); they are
    contragredient for the dot pairing, and mat_x preserves the root set.
    """

    word: tuple[int, ...]
    mat_x: IntMatrix
    mat_y: IntMatrix

    @property
    def length(self) -> int:
        return len(self.word)


# ---------------------------------------------------------------------------
# validation


def cartan_matrix(d: RootDatum) -> IntMatrix:
    """C[i][j] = <alpha_j, alphavee_i>."""
    return tuple(tuple(dot(d.simple_roots[j], d.simple_coroots[i])
                       for j in range(d.semisimple_rank))
                 for i in range(d.semisimple_rank))


def _is_finite_type_cartan(c: IntMatrix) -> bool:
    """Finite type test for a generalized Cartan matrix: every principal
    minor is positive (Kac, Infinite-dimensional Lie Algebras, 4.3).  The
    off-diagonal entries are <= 0, so the k leading principal minors
    suffice (Fiedler and Ptak, 1962)."""
    return all(mat_det(tuple(row[:size] for row in c[:size])) > 0
               for size in range(1, len(c) + 1))


def validate_datum(d: RootDatum) -> list[str]:
    """Check all datum invariants; violations are returned as data."""
    issues: list[str] = []
    if d.rank < 0:
        return [f"negative rank {d.rank}"]
    for label, vectors in (("root", d.simple_roots), ("coroot", d.simple_coroots)):
        for v in vectors:
            if len(v) != d.rank:
                issues.append(f"simple {label} {v} has length {len(v)}, expected rank {d.rank}")
    if issues:
        return issues
    k = d.semisimple_rank
    if len(d.simple_coroots) != k:
        return [f"{k} simple roots but {len(d.simple_coroots)} simple coroots"]
    if k > d.rank:
        issues.append(f"{k} simple roots exceed ambient rank {d.rank}")
    for i in range(k):
        p = dot(d.simple_roots[i], d.simple_coroots[i])
        if p != 2:
            issues.append(f"pairing <alpha_{i}, alphavee_{i}> = {p} != 2")
    c = cartan_matrix(d)
    for i in range(k):
        for j in range(k):
            if i != j:
                if c[i][j] > 0:
                    issues.append(f"off-diagonal Cartan entry C[{i}][{j}] = {c[i][j]} > 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    issues.append(f"Cartan entries C[{i}][{j}], C[{j}][{i}] disagree on vanishing")
    if int_rank(d.simple_roots) != k:
        issues.append("simple roots are linearly dependent")
    if int_rank(d.simple_coroots) != k:
        issues.append("simple coroots are linearly dependent")
    if issues:
        return issues
    if not _is_finite_type_cartan(c):
        issues.append("Cartan matrix is not of finite type")
    return issues


def require_valid(d: RootDatum) -> RootDatum:
    issues = validate_datum(d)
    if issues:
        raise ValidationError("invalid root datum: " + "; ".join(issues))
    return d


def dual_datum(d: RootDatum) -> RootDatum:
    """Swap roots with coroots; an involution on valid data."""
    require_valid(d)
    name = f"dual({d.name})" if d.name else ""
    return RootDatum(d.rank, d.simple_coroots, d.simple_roots, name)


# ---------------------------------------------------------------------------
# roots and Weyl group


def simple_reflection_x(d: RootDatum, i: int) -> IntMatrix:
    alpha = d.simple_roots[i]
    alphavee = d.simple_coroots[i]
    n = d.rank
    return tuple(tuple((1 if r == c else 0) - alpha[r] * alphavee[c] for c in range(n))
                 for r in range(n))


def simple_reflection_y(d: RootDatum, i: int) -> IntMatrix:
    alpha = d.simple_roots[i]
    alphavee = d.simple_coroots[i]
    n = d.rank
    return tuple(tuple((1 if r == c else 0) - alphavee[r] * alpha[c] for c in range(n))
                 for r in range(n))


@lru_cache(maxsize=None)
def positive_roots(d: RootDatum) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """All positive roots with their coroots, matched index by index and
    sorted by (height, root).

    s_i permutes the positive roots other than alpha_i (Humphreys,
    Reflection Groups and Coxeter Groups, 1.4), sending beta to
    beta - <beta, alphavee_i> alpha_i of height h(beta) - <beta, alphavee_i>
    and betavee to s_i(betavee); every positive root is reached this way
    from the simple roots.
    """
    require_valid(d)
    simple = tuple(zip(d.simple_roots, d.simple_coroots))
    found = {root: (1, coroot) for root, coroot in simple}
    frontier = list(found)
    while frontier:
        beta = frontier.pop()
        height, betavee = found[beta]
        for alpha, alphavee in simple:
            n = dot(beta, alphavee)
            if n == 0 or beta == alpha:
                continue
            root = vec_sub(beta, vec_scale(n, alpha))
            if height - n < 1:
                raise RuntimeError(
                    f"internal: reflecting {beta} gave {root} of height {height - n}")
            if root in found:
                continue
            found[root] = (height - n, vec_sub(betavee, vec_scale(dot(alpha, betavee), alphavee)))
            frontier.append(root)
        if 2 * len(found) > _ROOT_CAP:  # the cap counts all roots, negative ones too
            raise CapExceededError("root generation exceeded the safety cap")
    ordered = sorted(found, key=lambda root: (found[root][0], root))
    return tuple(ordered), tuple(found[root][1] for root in ordered)


@lru_cache(maxsize=None)
def positive_root_sum(d: RootDatum) -> Vec:
    """Sum of all positive roots (twice the half-sum rho)."""
    roots, _ = positive_roots(d)
    total = (0,) * d.rank
    for r in roots:
        total = vec_add(total, r)
    return total


@lru_cache(maxsize=None)
def _weyl_group_cached(d: RootDatum, cap: int) -> tuple[WeylElement, ...]:
    require_valid(d)
    n = d.rank
    refl_x = [simple_reflection_x(d, i) for i in range(d.semisimple_rank)]
    refl_y = [simple_reflection_y(d, i) for i in range(d.semisimple_rank)]
    identity = WeylElement((), mat_identity(n), mat_identity(n))
    elements = [identity]
    index = {identity.mat_y: 0}
    head = 0
    while head < len(elements):
        w = elements[head]
        head += 1
        for i in range(d.semisimple_rank):
            mat_y = mat_mul(w.mat_y, refl_y[i])
            if mat_y in index:
                continue
            mat_x = mat_mul(w.mat_x, refl_x[i])
            element = WeylElement(w.word + (i,), mat_x, mat_y)
            index[mat_y] = len(elements)
            elements.append(element)
            if len(elements) > cap:
                raise CapExceededError(f"Weyl group exceeds the cap of {cap} elements")
    return tuple(elements)


def weyl_group(d: RootDatum, cap: int = DEFAULT_WEYL_CAP) -> tuple[WeylElement, ...]:
    """All Weyl elements in breadth-first (length, then word) order.

    The first element is the identity; each word is reduced because the
    closure is explored by increasing length.
    """
    return _weyl_group_cached(d, cap)


def weyl_order(d: RootDatum, cap: int = DEFAULT_WEYL_CAP) -> int:
    return len(weyl_group(d, cap))


def longest_element(d: RootDatum) -> WeylElement:
    return max(weyl_group(d), key=lambda w: w.length)


def inversion_count(d: RootDatum, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots; equals the length."""
    roots, _ = positive_roots(d)
    neg = {vec_scale(-1, r) for r in roots}
    return sum(1 for r in roots if mat_apply(w.mat_x, r) in neg)


# ---------------------------------------------------------------------------
# dominance order on coweights


def pairings(d: RootDatum, v: Sequence[int]) -> Vec:
    """(<alpha_i, v>)_i over the simple roots: the class of v modulo the
    central coweights, all >= 0 exactly when v is dominant.  The rank of v
    is checked here, so also for a datum with no simple roots."""
    if len(v) != d.rank:
        raise RankMismatchError(f"pairing of vectors of ranks {d.rank} and {len(v)}")
    # on every Hecke product: a list comprehension is quicker than a generator
    return tuple([dot(alpha, v) for alpha in d.simple_roots])


def is_dominant_coweight(d: RootDatum, v: Sequence[int]) -> bool:
    return all(x >= 0 for x in pairings(d, v))


def require_dominant(d: RootDatum, v: Sequence[int]) -> Vec:
    """v as a tuple of ints; ValidationError unless it is dominant."""
    v = tuple(int(x) for x in v)
    if not is_dominant_coweight(d, v):
        raise ValidationError(f"coweight {v} is not dominant")
    return v


def dominance_leq(d: RootDatum, nu: Sequence[int], lam: Sequence[int]) -> bool:
    """nu <= lam iff lam - nu is a nonnegative integer combination of the
    simple coroots."""
    diff = vec_sub(tuple(lam), tuple(nu))
    coords = solve_rational(d.simple_coroots, diff)
    if coords is None:
        return False
    return all(c.denominator == 1 and c >= 0 for c in coords)


def coweight_order_key(d: RootDatum, v: Vec):
    """Sort key realizing a linear extension of reverse dominance order."""
    return (-dot(positive_root_sum(d), v),) + v


@lru_cache(maxsize=None)
def dominant_below(d: RootDatum, lam: Vec) -> tuple[Vec, ...]:
    """All dominant coweights nu <= lam, in decreasing dominance order.

    Writes the semisimple part of lam as sum b_i alphavee_i (b_i >= 0 by
    positivity of the inverse Cartan matrix), so subtraction coefficients
    are confined to the integer box prod [0, b_i].
    """
    lam = require_dominant(d, lam)
    k = d.semisimple_rank
    if k == 0:
        return (lam,)
    cartan = cartan_matrix(d)
    p = pairings(d, lam)
    coords = solve_rational(cartan, p)
    assert coords is not None and all(b >= 0 for b in coords)
    bounds = [b.numerator // b.denominator for b in coords]
    # <alpha_i, lam - sum_j c_j alphavee_j> = p_i - sum_j c_j C[j][i], so
    # dominance is decided before nu is built
    columns = mat_transpose(cartan)
    found = []
    for c in itertools.product(*(range(b + 1) for b in bounds)):
        if all(x >= dot(col, c) for x, col in zip(p, columns)):
            nu = lam
            for ci, alphavee in zip(c, d.simple_coroots):
                nu = vec_sub(nu, vec_scale(ci, alphavee))
            found.append(nu)
    found.sort(key=lambda v: coweight_order_key(d, v))
    return tuple(found)


def stabilizer_poincare(d: RootDatum, lam: Sequence[int]) -> Laurent:
    """Poincare polynomial sum t^len(w) over the stabilizer of lam in W."""
    lam = tuple(lam)
    out = Laurent.zero()
    for w in weyl_group(d):
        if mat_apply(w.mat_y, lam) == lam:
            out = out + Laurent.q_power(w.length)
    return out


# ---------------------------------------------------------------------------
# isomorphism search


def _candidate_isomorphisms(d1: RootDatum, d2: RootDatum, perm: Sequence[int]):
    """Integer solutions F: X2 -> X1 with F(alpha2_j) = alpha1_{perm[j]} and
    adjoint F^T(alphavee1_{perm[j]}) = alphavee2_j, as (particular, kernel)."""
    n = d1.rank
    rows = []
    rhs = []
    # F entries flattened row-major: F[r][c] at index r*n + c
    for j, alpha2 in enumerate(d2.simple_roots):
        target = d1.simple_roots[perm[j]]
        for r in range(n):
            row = [0] * (n * n)
            for c in range(n):
                row[r * n + c] = alpha2[c]
            rows.append(tuple(row))
            rhs.append(target[r])
    for j, alphavee2 in enumerate(d2.simple_coroots):
        source = d1.simple_coroots[perm[j]]
        for c in range(n):
            row = [0] * (n * n)
            for r in range(n):
                row[r * n + c] = source[r]
            rows.append(tuple(row))
            rhs.append(alphavee2[c])
    return solve_integer_linear(tuple(rows), tuple(rhs))


def _unflatten(flat: Sequence[int], n: int) -> IntMatrix:
    return tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n))


def datum_isomorphic(d1: RootDatum, d2: RootDatum) -> Optional[IntMatrix]:
    """A lattice isomorphism X2 -> X1 matching simple roots up to a diagram
    permutation, with adjoint matching coroots, or None.

    Among all unimodular solutions the one closest to the identity is
    preferred (then determinant +1, then lexicographic order), so repeated
    calls are deterministic and self-isomorphism returns the identity.
    """
    require_valid(d1)
    require_valid(d2)
    if d1.rank != d2.rank or d1.semisimple_rank != d2.semisimple_rank:
        return None
    n = d1.rank
    k = d1.semisimple_rank
    c1 = cartan_matrix(d1)
    c2 = cartan_matrix(d2)
    best = None
    best_key = None
    for perm in itertools.permutations(range(k)):
        if any(c2[i][j] != c1[perm[i]][perm[j]] for i in range(k) for j in range(k)):
            continue
        solution = _candidate_isomorphisms(d1, d2, perm)
        if solution is None:
            continue
        particular, kernel = solution
        for combo in itertools.product(range(-_ISO_SEARCH_BOUND, _ISO_SEARCH_BOUND + 1),
                                       repeat=len(kernel)):
            flat = list(particular)
            for coeff, kv in zip(combo, kernel):
                for idx in range(n * n):
                    flat[idx] += coeff * kv[idx]
            mat = _unflatten(flat, n)
            det = mat_det(mat)
            if det not in (1, -1):
                continue
            identity_distance = sum(abs(mat[r][c] - (1 if r == c else 0))
                                    for r in range(n) for c in range(n))
            key = (identity_distance, 0 if det == 1 else 1, tuple(flat))
            if best_key is None or key < best_key:
                best_key = key
                best = mat
    return best


# ---------------------------------------------------------------------------
# builtin registry


BUILTINS: dict[str, RootDatum] = {
    "SL2": RootDatum(1, ((2,),), ((1,),), "SL2"),
    "PGL2": RootDatum(1, ((1,),), ((2,),), "PGL2"),
    "GL2": RootDatum(2, ((1, -1),), ((1, -1),), "GL2"),
    "SL3": RootDatum(2, ((2, -1), (-1, 2)), ((1, 0), (0, 1)), "SL3"),
    "PGL3": RootDatum(2, ((1, 0), (0, 1)), ((2, -1), (-1, 2)), "PGL3"),
    "GL3": RootDatum(3, ((1, -1, 0), (0, 1, -1)), ((1, -1, 0), (0, 1, -1)), "GL3"),
    "Sp4": RootDatum(2, ((1, -1), (0, 2)), ((1, -1), (0, 1)), "Sp4"),
    "SO5": RootDatum(2, ((1, -1), (0, 1)), ((1, -1), (0, 2)), "SO5"),
}

TRIVIAL = RootDatum(0, (), (), "trivial")


def lookup_datum(name: str) -> Optional[RootDatum]:
    if name in BUILTINS:
        return BUILTINS[name]
    if name == "trivial":
        return TRIVIAL
    return None
