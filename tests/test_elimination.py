"""Exhaustive checks of the shared exact elimination routines.

Every determinant, rank, rational solve and unimodular inverse runs on one
fraction-free Gauss-Jordan routine.  These tests compare it with
independent definitions written here: the Leibniz expansion, a
forward-only integer elimination, Gauss-Jordan over Fraction,
substitution back into the system, and the symmetrize-then-Sylvester
finite-type test.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import Optional

import pytest

from heckedual.lattice import (
    _row_reduce,
    int_rank,
    mat_det,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    solve_rational,
)
from heckedual.rootdatum import _is_finite_type_cartan


def permutation_sign(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


SIGNED_PERMUTATIONS = {n: [(perm, permutation_sign(perm)) for perm in itertools.permutations(range(n))]
                       for n in (2, 3)}


def leibniz_det(m) -> int:
    total = 0
    for perm, sign in SIGNED_PERMUTATIONS[len(m)]:
        term = sign
        for row, j in zip(m, perm):
            term *= row[j]
        total += term
    return total


def nonzero_rows_after_elimination(vectors) -> int:
    """Forward-only row echelon form by integer cross-multiplication."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f, g = rows[i][c], rows[r][c]
            rows[i] = [g * x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return sum(1 for row in rows if any(row))


def all_matrices(n: int, entries):
    for flat in itertools.product(entries, repeat=n * n):
        yield tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


SMALL_MATRICES = list(all_matrices(2, range(-2, 3))) + list(all_matrices(3, (-1, 0, 1)))


def test_det_rank_and_inverse_exhaustive():
    assert len(SMALL_MATRICES) == 5 ** 4 + 3 ** 9
    unimodular = 0
    for m in SMALL_MATRICES:
        n = len(m)
        det = mat_det(m)
        assert det == leibniz_det(m), m
        rank = int_rank(m)
        assert rank == nonzero_rows_after_elimination(m), m
        assert (rank == n) == (det != 0), m
        if det in (1, -1):
            unimodular += 1
            assert mat_mul(m, mat_inverse_unimodular(m)) == mat_identity(n), m
    assert unimodular > 0


def test_solve_rational_exhaustive():
    # the columns of m against the last standard basis vector, which is in
    # their span for every invertible m and for some singular ones
    solved = refused = 0
    for m in SMALL_MATRICES:
        n = len(m)
        target = (0,) * (n - 1) + (1,)
        sol = solve_rational(m, target)
        if sol is None:
            refused += 1
            assert int_rank(m + (target,)) > int_rank(m), m
            continue
        solved += 1
        assert all(isinstance(x, Fraction) for x in sol)
        # substitute back with the denominators cleared
        scale = math.lcm(*(x.denominator for x in sol))
        ints = [x.numerator * (scale // x.denominator) for x in sol]
        back = tuple(sum(x * col[i] for x, col in zip(ints, m)) for i in range(n))
        assert back == tuple(scale * t for t in target), (m, sol)
    assert solved > refused > 0


def fraction_gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fraction, pivoting on the first
    nonzero entry: the elimination the fraction-free routine replaced."""
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


def test_row_reduce_is_a_multiple_of_fraction_gauss_jordan():
    # rectangular, rank-deficient and augmented systems beyond the square
    # sets above: every row ends as d times the reduced row over Q
    rng = random.Random(7)
    for _ in range(600):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        basis = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(1, n))]
        rows = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(m)]
                for _ in range(n)]
        ncols = rng.randint(0, m)
        expected_pivots, expected = fraction_gauss_jordan(rows, ncols)
        pivots, _ = _row_reduce(rows, ncols)
        assert pivots == expected_pivots
        d = rows[0][pivots[0]] if pivots else 1
        for row, reduced in zip(rows, expected):
            assert row == [d * x for x in reduced]


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((1, 2), (2, 4)))


# ---------------------------------------------------------------------------
# finite type: principal minors against symmetrize-then-Sylvester


def sylvester_finite_type(c) -> bool:
    """The finite-type test the principal-minor test replaced: symmetrize
    along the Coxeter graph, then require positive leading minors."""
    k = len(c)
    if k == 0:
        return True
    weights: list[Optional[Fraction]] = [None] * k
    for start in range(k):
        if weights[start] is not None:
            continue
        weights[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(k):
                if i == j or c[i][j] == 0:
                    continue
                w = weights[i] * Fraction(c[i][j], c[j][i])
                if weights[j] is None:
                    weights[j] = w
                    stack.append(j)
                elif weights[j] != w:
                    return False
    sym = [[weights[i] * c[i][j] for j in range(k)] for i in range(k)]
    if any(sym[i][j] != sym[j][i] for i in range(k) for j in range(k)):
        return False
    a = [row[:] for row in sym]
    for p in range(k):
        pivot = a[p][p]
        if pivot <= 0:
            return False
        for r in range(p + 1, k):
            f = a[r][p] / pivot
            a[r] = [x - f * y for x, y in zip(a[r], a[p])]
    return True


def generalized_cartan_matrices(k: int):
    """Diagonal 2, off-diagonal entries in 0..-4, zero in symmetric pairs."""
    pairs = list(itertools.combinations(range(k), 2))
    choices = [(0, 0)] + [(a, b) for a in range(-4, 0) for b in range(-4, 0)]
    for picks in itertools.product(choices, repeat=len(pairs)):
        c = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
        for (i, j), (a, b) in zip(pairs, picks):
            c[i][j], c[j][i] = a, b
        yield tuple(tuple(row) for row in c)


def test_finite_type_agrees_with_sylvester():
    matrices = [c for k in (1, 2, 3) for c in generalized_cartan_matrices(k)]
    assert len(matrices) == 4931
    finite = 0
    for c in matrices:
        new = _is_finite_type_cartan(c)
        assert new == sylvester_finite_type(c), c
        finite += new
    assert finite == 38


def test_finite_type_of_small_cases():
    assert _is_finite_type_cartan(())
    assert _is_finite_type_cartan(((2, -1), (-3, 2)))  # G2
    assert not _is_finite_type_cartan(((2, -2), (-2, 2)))  # affine A1
    assert not _is_finite_type_cartan(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)))  # affine A2
