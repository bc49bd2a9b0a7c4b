"""Exhaustive checks of the exact elimination routines.

Determinants run on forward fraction-free elimination (``mat_det``),
unimodular inverses on the Smith normal form, and the independence of
simple roots on the Gram determinant.  These tests compare them with
independent definitions: the Leibniz expansion, a forward-only integer
elimination, and the symmetrize-then-Sylvester finite-type test.
"""

import itertools
import random
from fractions import Fraction
from typing import Optional

import pytest

from heckedual.lattice import mat_det, mat_identity, mat_inverse_unimodular, mat_mul
from heckedual.rootdatum import RootDatum, _is_finite_type_cartan, validate_datum


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
        assert (nonzero_rows_after_elimination(m) == n) == (det != 0), m
        if det in (1, -1):
            unimodular += 1
            assert mat_mul(m, mat_inverse_unimodular(m)) == mat_identity(n), m
    assert unimodular > 0


def random_vectors(rng, k: int, n: int):
    """k seeded vectors in Z^n; half the time combinations of fewer than k."""
    span = rng.randint(1, k - 1) if k > 1 and rng.random() < 0.5 else k
    basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(span)]
    if span == k:
        return tuple(basis)
    return tuple(tuple(sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(n))
                 for _ in range(k))


def test_independence_against_forward_elimination():
    # k <= 4 vectors in Z^n, n <= 5, with k > n and rank-deficient sets;
    # only the dependence messages are compared
    rng = random.Random(37)
    seen = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for _ in range(1500):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        roots, coroots = random_vectors(rng, k, n), random_vectors(rng, k, n)
        issues = validate_datum(RootDatum(n, roots, coroots))
        for label, vectors in (("roots", roots), ("coroots", coroots)):
            dependent = nonzero_rows_after_elimination(vectors) < k
            assert (f"simple {label} are linearly dependent" in issues) == dependent, (roots, coroots)
            seen[k > n, dependent] += 1
    assert seen[True, False] == 0 and min(seen[True, True], seen[False, True], seen[False, False]) > 100
    # the roots' message comes before the coroots'
    issues = validate_datum(RootDatum(2, ((1, 1), (2, 2)), ((1, 0), (3, 0))))
    assert issues[-2:] == ["simple roots are linearly dependent", "simple coroots are linearly dependent"]


def test_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError, match="^matrix of determinant 2 is not unimodular$"):
        mat_inverse_unimodular(((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="^matrix of determinant 0 is not unimodular$"):
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
