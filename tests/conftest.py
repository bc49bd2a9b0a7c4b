import itertools
from fractions import Fraction

import pytest

from heckedual import rootdatum, satake
from heckedual.lattice import (
    GroupAlgebraElement,
    dot,
    mat_apply,
    mat_identity,
    mat_mul,
    mat_transpose,
    vec_sub,
    vec_sub_scaled,
)
from heckedual.rootdatum import (
    coweight_order_key,
    is_dominant_coweight,
    orbit_walk,
    pairings,
    require_dominant,
)
from heckedual.satake import lift_exponent


def simple_reflection_x(d, i):
    """The matrix of s_i on weights, I - alpha_i (x) alphavee_i: a reference
    for ``lattice.reflect`` built entry by entry."""
    alpha, alphavee = d.simple_roots[i], d.simple_coroots[i]
    return tuple(tuple(int(r == c) - alpha[r] * alphavee[c] for c in range(d.rank))
                 for r in range(d.rank))


def simple_reflection_y(d, i):
    """The matrix of s_i on coweights, I - alphavee_i (x) alpha_i."""
    alphavee, alpha = d.simple_coroots[i], d.simple_roots[i]
    return tuple(tuple(int(r == c) - alphavee[r] * alpha[c] for c in range(d.rank))
                 for r in range(d.rank))


def weyl_matrices(d, word):
    """The matrices of the Weyl element with reduced word ``word``, on
    weights and on coweights: the products of the simple reflections above
    along the word."""
    mat_x = mat_y = mat_identity(d.rank)
    for i in word:
        mat_x = mat_mul(mat_x, simple_reflection_x(d, i))
        mat_y = mat_mul(mat_y, simple_reflection_y(d, i))
    return mat_x, mat_y


def weyl_by_closure(d):
    """Every element of W as (length, matrix on weights, matrix on
    coweights): the products of the simple reflection matrices above,
    closed breadth first, so an element is first met at its length.  A
    reference that runs no orbit walk and reads no reduced word."""
    gens = [(simple_reflection_x(d, i), simple_reflection_y(d, i)) for i in range(len(d.simple_roots))]
    one = mat_identity(d.rank)
    found = {one: (0, one, one)}  # keyed by the matrix on coweights
    queue = [one]
    for key in queue:  # the queue grows as it is read
        length, mat_x, mat_y = found[key]
        for gen_x, gen_y in gens:
            moved = mat_mul(mat_y, gen_y)
            if moved not in found:
                found[moved] = (length + 1, mat_mul(mat_x, gen_x), moved)
                queue.append(moved)
    return list(found.values())


def positive_by_closure(d):
    """The positive roots and the positive coroots, as sets: the W-images of
    the simple ones whose coordinates in the simple ones are >= 0 (a
    reference, by ``weyl_by_closure`` and ``solve_fraction``)."""
    group = weyl_by_closure(d)

    def positive(simple, which):
        images = {tuple(mat_apply(mats[which], v)) for mats in group for v in simple}
        return {v for v in images if all(c >= 0 for c in solve_fraction(simple, v))}

    return positive(d.simple_roots, 1), positive(d.simple_coroots, 2)


def enumerate_dominant(d, height):
    """All dominant coweights with every coordinate bounded by height in
    absolute value, in decreasing dominance-compatible order."""
    found = [v for v in itertools.product(range(-height, height + 1), repeat=d.rank)
             if is_dominant_coweight(d, v)]
    found.sort(key=lambda v: coweight_order_key(d, v))
    return tuple(found)


def fraction_gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fraction, pivoting on the first
    nonzero entry: the elimination under ``solve_fraction``."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows


def solve_fraction(columns, target):
    """Solve sum_j c_j * columns[j] = target over Q: one solution, free
    coordinates 0, or None when the system is inconsistent."""
    k = len(columns)
    pivots, rows = fraction_gauss_jordan(
        [[col[i] for col in columns] + [x] for i, x in enumerate(target)], k)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * k
    for row, c in zip(rows, pivots):
        sol[c] = row[k]
    return tuple(sol)


def dominance_leq_by_fractions(d, nu, lam):
    """nu <= lam by the rational coordinates of lam - nu in the simple
    coroots: a reference for ``dominance_leq``."""
    coords = solve_fraction(d.simple_coroots, vec_sub(lam, nu))
    return coords is not None and all(c.denominator == 1 and c >= 0 for c in coords)


def dominant_below_by_box(d, lam):
    """All dominant coweights nu <= lam, in decreasing dominance order: a
    reference for ``dominant_below`` that writes the semisimple part of lam
    as sum b_i alphavee_i (b_i >= 0 by positivity of the inverse Cartan
    matrix), so subtraction coefficients are confined to the integer box
    prod [0, b_i]."""
    lam = require_dominant(d, lam)
    k = d.semisimple_rank
    if k == 0:
        return (lam,)
    cartan = rootdatum._facts(d).cartan
    p = pairings(d, lam)
    coords = solve_fraction(cartan, p)
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
                nu = vec_sub_scaled(nu, ci, alphavee)
            found.append(nu)
    found.sort(key=lambda v: coweight_order_key(d, v))
    return tuple(found)


def demazure_lusztig(elem, alpha, alphavee):
    """The Demazure-Lusztig operator with parameter q^-1,

        T f = q^-1 s(f) + (1 - q^-1) (f - s(f)) / (e^alphavee - 1),

    for the reflection s(e^y) = e^(y - k alphavee), k = <alpha, y>, on
    coordinate tuples and Laurent coefficients: the reference for the
    packed walk of ``satake``.  The quotient is a finite geometric sum:
    e^(y - j alphavee) for j = 1..k when k > 0, minus the same for j =
    k+1..0 when k < 0, none when k = 0."""
    def terms(y, c):
        k = dot(alpha, y)
        lowered = c.shift(-1)
        yield vec_sub_scaled(y, k, alphavee), lowered
        rest = c - lowered if k > 0 else lowered - c
        for j in range(min(1, k + 1), max(1, k + 1)):
            yield vec_sub_scaled(y, j, alphavee), rest

    return GroupAlgebraElement.collect(elem.rank, (terms(y, c) for y, c in elem.items()))


def reference_image_extended(dd, lam):
    """The image of lam on the extended lattice by the tuple walk: T_u
    e^(lam, 0) summed over the orbit of (lam, 0), walked breadth first."""
    ext = dd.ext
    start = lift_exponent(lam, 0)
    terms = {start: GroupAlgebraElement.monomial(start)}
    for mu, i, nu in orbit_walk(ext, start):
        terms[nu] = demazure_lusztig(terms[mu], ext.simple_roots[i], ext.simple_coroots[i])
    return GroupAlgebraElement.collect(ext.rank, (t.items() for t in terms.values()))


def reference_image(dd, lam):
    """The image of lam by the tuple walk, restricted to q."""
    return reference_image_extended(dd, lam).specialize_delta(dd.delta_index)


@pytest.fixture
def fresh_images():
    """Empty the image cache, the expansion memo and the memo of decoded
    coefficients around a test, so it builds, peels and decodes cold (and
    leaves no corrupted image behind)."""
    caches = (satake._images, satake._expansions, satake._decoded)
    for cache in caches:
        cache.clear()
    yield
    for cache in caches:
        cache.clear()
