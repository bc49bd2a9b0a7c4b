"""The extended datum, its dual-side structure maps and the central sign.

Starting from a based root datum, the character lattice is enlarged by one
rank with a distinguished weight r pairing to 1 with every simple coroot,
so the extension always carries a weight of type rho even when the base
datum does not.  On the dual side this produces the tuple of structure
data (i, p, j, r) together with a canonical central element of order at
most two, realized here as the parity functional of the sum t of all
positive roots.

Everything is verified at construction time: the identities dot(r, i) = 1,
dot(j, i) = 2, Weyl invariance of j and evenness of dot(t, coroot) are
cheap, and a failure indicates an implementation bug rather than bad
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ValidationError
from .lattice import (
    Vec,
    dot,
    mat_apply,
    smith_normal_form,
    solve_integer_linear,
    vec_scale,
    vec_sub,
)
from .rootdatum import (
    RootDatum,
    positive_root_sum,
    positive_roots,
    require_valid,
    simple_reflection_x,
    validate_datum,
)


def solve_rho_weights(d: RootDatum) -> Optional[tuple[Vec, tuple[Vec, ...]]]:
    """All integral weights r with dot(r, alphavee_i) = 1 for every i.

    Returns a particular solution and a basis of the homogeneous solutions
    (weights pairing to 0 with all simple coroots), or None when the system
    has no integral solution.  Any two solutions differ by an element of
    the homogeneous lattice.
    """
    require_valid(d)
    system = tuple(d.simple_coroots)
    rhs = (1,) * d.semisimple_rank
    solution = solve_integer_linear(system, rhs)
    if solution is None:
        return None
    particular, kernel = solution
    return particular, tuple(kernel)


@dataclass(frozen=True)
class ExtendedDatum:
    """The rank+1 extension with simple roots (alpha, 0), coroots
    (alphavee, 1), distinguished weight r = (0,...,0,1) and the delta
    coordinate last."""

    base: RootDatum
    ext: RootDatum
    r: Vec
    delta_index: int


def extend_datum(d: RootDatum) -> ExtendedDatum:
    """Adjoin the canonical central direction to a valid datum."""
    require_valid(d)
    roots = tuple(v + (0,) for v in d.simple_roots)
    coroots = tuple(v + (1,) for v in d.simple_coroots)
    name = f"{d.name}~" if d.name else ""
    ext = RootDatum(d.rank + 1, roots, coroots, name)
    issues = validate_datum(ext)
    if issues:
        raise ValidationError("extension failed validation: " + "; ".join(issues))
    r = (0,) * d.rank + (1,)
    datum = ExtendedDatum(d, ext, r, d.rank)
    for i, alphavee in enumerate(ext.simple_coroots):
        if dot(r, alphavee) != 1:
            raise RuntimeError(f"internal: dot(r, coroot {i}) != 1 in extension")
        reflected = mat_apply(simple_reflection_x(ext, i), r)
        if reflected != vec_sub(r, ext.simple_roots[i]):
            raise RuntimeError(f"internal: reflection {i} does not shift r by a root")
    return datum


def epsilon_of(d: RootDatum) -> tuple[int, Vec]:
    """Order of the central sign and the weight t behind it.

    t is the sum of all positive roots; the sign has order 2 exactly when t
    is not divisible by 2 in the character lattice.  Centrality amounts to
    dot(t, betavee) being even for every coroot, which is checked.
    """
    require_valid(d)
    t = positive_root_sum(d)
    _, coroots = positive_roots(d)
    for betavee in coroots:
        if dot(t, betavee) % 2:
            raise RuntimeError(f"internal: dot(t, {betavee}) is odd; sign not central")
    order = 2 if any(x % 2 for x in t) else 1
    return order, t


@dataclass(frozen=True)
class LanglandsDualData:
    """Dual-side structure data attached to the extension of a root datum.

    Fields live in the extended lattices: t and j = 2r - t in the extended
    character lattice, the central cocharacter i and the projection
    character p both given by the delta vector of the extended cocharacter
    lattice.  epsilon_order records whether the central sign is trivial.
    """

    extended: ExtendedDatum
    t: Vec
    j: Vec
    i: Vec
    p: Vec
    epsilon_order: int

    @property
    def base(self) -> RootDatum:
        return self.extended.base

    @property
    def ext(self) -> RootDatum:
        return self.extended.ext

    @property
    def r(self) -> Vec:
        return self.extended.r

    @property
    def delta_index(self) -> int:
        return self.extended.delta_index


@lru_cache(maxsize=None)
def langlands_dual_data(d: RootDatum) -> LanglandsDualData:
    """Assemble and verify the full dual-side data for a valid datum."""
    extended = extend_datum(d)
    order, t0 = epsilon_of(d)
    t = t0 + (0,)
    j = vec_sub(vec_scale(2, extended.r), t)
    i = (0,) * d.rank + (1,)
    data = LanglandsDualData(extended, t, j, i, i, order)
    if dot(data.r, data.i) != 1:
        raise RuntimeError("internal: dot(r, i) != 1")
    if dot(data.j, data.i) != 2:
        raise RuntimeError("internal: dot(j, i) != 2")
    # s_i j = j - <j, alphavee_i> alpha_i, and the s_i generate the Weyl group
    for k, alphavee in enumerate(extended.ext.simple_coroots):
        if dot(j, alphavee) != 0:
            raise RuntimeError(f"internal: j moved by simple reflection s_{k}")
    return data


# ---------------------------------------------------------------------------
# the order-two quotient presentation of the dual-side group


@dataclass(frozen=True)
class KernelElement:
    """Generator of the kernel of the two-fold covering, as computed from
    lattice data: a sign on the split factor and a parity functional on
    coweights (the central sign epsilon)."""

    gm_component: int
    epsilon_order: int
    epsilon_parity: Vec

    def epsilon_value(self, y: Sequence[int]) -> int:
        return -1 if dot(self.epsilon_parity, y) % 2 else 1

    def describe(self) -> str:
        eps = "epsilon of order 2" if self.epsilon_order == 2 else "trivial epsilon"
        return f"({self.gm_component}, {eps})"


@dataclass(frozen=True)
class QuotientDecomposition:
    cokernel_invariants: tuple[int, ...]
    kernel: KernelElement


def decompose_quotient(dd: LanglandsDualData) -> QuotientDecomposition:
    """Present the dual-side group as a two-fold quotient.

    The cocharacter-level map Z (+) X -> X~, (n, x) |-> n*j + (x, 0), has
    cokernel Z/2; the kernel of the corresponding torus covering is
    generated by (-1, epsilon).  Both facts are recomputed here from Smith
    normal forms rather than read off the t-parity shortcut, so agreement
    with epsilon_of is a genuine cross-check.
    """
    base = dd.base
    n = base.rank
    j = dd.j
    # columns: j, then the embedded standard basis of X
    cochar = tuple(tuple([j[row]] + [1 if row == col else 0 for col in range(n)])
                   for row in range(n + 1))
    diag, _, _ = smith_normal_form(cochar)
    entries = [diag[k][k] for k in range(n + 1)]
    if any(e == 0 for e in entries):
        raise RuntimeError("internal: cocharacter map is not injective")
    invariants = tuple(e for e in entries if e != 1)
    if invariants != (2,):
        raise RuntimeError(f"internal: cokernel invariants {invariants} != (2,)")
    # r generates the cokernel: 2r lies in the image, r does not
    if solve_integer_linear(cochar, dd.r) is not None:
        raise RuntimeError("internal: r lies in the image of the covering map")
    if solve_integer_linear(cochar, vec_scale(2, dd.r)) is None:
        raise RuntimeError("internal: 2r escapes the image of the covering map")
    # kernel of the torus covering, from the character-level map
    # (y, m) |-> (2m - dot(t, y), y)
    t0 = dd.t[:-1]
    char_rows = [tuple(-x for x in t0) + (2,)]
    for k in range(n):
        char_rows.append(tuple(1 if c == k else 0 for c in range(n + 1)))
    char = tuple(char_rows)
    diag2, s2, _ = smith_normal_form(char)
    entries2 = [diag2[k][k] for k in range(n + 1)]
    two_at = entries2.index(2)

    def parity_class(v: Vec) -> int:
        return mat_apply(s2, v)[two_at] % 2

    gm = -1 if parity_class((1,) + (0,) * n) else 1
    parities = tuple(parity_class(tuple(1 if c == k + 1 else 0 for c in range(n + 1)))
                     for k in range(n))
    order = 2 if any(parities) else 1
    return QuotientDecomposition((2,), KernelElement(gm, order, parities))
