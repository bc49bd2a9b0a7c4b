"""Workload inputs: every op a run can issue, and the seeded choice of one run's ops.

The benchmark owns these tables.  The program only ever sees the generated
vectors, values and argument lists; reference digests in ``reference.json``
are indexed by the positions defined here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

HEIGHT = 3

# Simple roots of the builtin data the Hecke workloads use (as in
# heckedual.rootdatum.BUILTINS); a coweight v is dominant when every
# <alpha, v> >= 0.
SIMPLE_ROOTS = {
    "SL3": ((2, -1), (-1, 2)),
    "PGL3": ((1, 0), (0, 1)),
    "Sp4": ((1, -1), (0, 2)),
    "SO5": ((1, -1), (0, 1)),
    "GL2": ((1, -1),),
    "GL3": ((1, -1, 0), (0, 1, -1)),
}

# Generator of the central lattice {y : <alpha, y> = 0 for every simple
# alpha}; the semisimple data have none.  The last coordinate is 1, so
# v - v[-1] * z is a canonical representative of v modulo the centre.
CENTRE = {"GL2": (1, 1), "GL3": (1, 1, 1)}

SEMISIMPLE = ("SL3", "PGL3", "Sp4", "SO5")
GL3_SAMPLE_STEP = 4  # hecke-central keeps every 4th GL3 pair: 1764 of 7056

# rfactor-places: a Weyl-orbit representation of dimension 4, 4 and 3,
# given by one seed weight on the extended lattice.
RF_TAU_SEED = {"Sp4": (1, 0, 1), "SO5": (1, 0, 1), "GL3": (1, 0, 0, 1)}
RF_PRIMES = 240
RF_SQUARES = 60  # per datum: 3 of 4 places have non-square q
RF_S = 2.5
RF_VARIANTS = {
    2: ((1, 1), (2, -1), (Fraction(1, 2), 3), (-1, Fraction(5, 4))),
    3: ((1, 1, 1), (2, -1, Fraction(1, 3)), (Fraction(1, 2), 3, -2),
        (-1, Fraction(5, 4), Fraction(2, 3))),
}

# cli-cold: one pass runs every call once, each in a fresh `heckedual` process.
_FAST = ("dual", "roots", "weyl", "rho", "extend", "epsilon", "dualdata")
_DATA = ("SL2", "PGL2", "GL2", "SL3", "PGL3", "GL3", "Sp4", "SO5", "trivial")
CLI_CALLS = tuple(
    [("--format", "json", cmd, d) for cmd in _FAST for d in _DATA]
    + [("--format", "json", "split", d, "--q", q, "--values", v, "--sqrt-sign", sign)
       for d, q, v in (("PGL2", "9", "2"), ("PGL2", "2", "3"), ("SL2", "4", "5"),
                       ("GL2", "3", "2,1"), ("GL2", "25", "1,-1"), ("SO5", "7", "2,3"))
       for sign in ("plus", "minus")]
    + [("--format", "json", "rfactor", d, "--weights", w, "--values", v, "--q", q, "--s", s)
       for d, w, v, q, s in (("PGL2", "1,1;-1,0", "2", "3", "2"),
                             ("PGL2", "1,1;-1,0", "2", "4", "3"),
                             ("PGL2", "0,1", "5", "7", "2"),
                             ("GL2", "1,0,0;0,1,-1", "2,3", "5", "2"),
                             ("GL2", "1,0,1;0,1,0", "1,1", "9", "1.5"),
                             ("SL2", "1,0;-1,-2", "3", "2", "2.5"),
                             ("trivial", "1", "", "11", "1.25"))]
    + [("--format", "json", "satake", d, "--coweight", c)
       for d, cs in (("GL2", ("6,-6", "6,0")), ("SL3", ("6,6", "6,3")),
                     ("PGL3", ("6,6", "6,0")), ("Sp4", ("6,6", "6,0")),
                     ("SO5", ("6,6", "6,0")))
       for c in cs]
    + [("--format", "json", "mult", d, "--lhs", a, "--rhs", b)
       for d, a, b in (("GL3", "6,0,-6", "6,0,-6"), ("Sp4", "3,3", "3,3"),
                       ("PGL2", "1", "1"), ("SL3", "1,1", "1,1"), ("GL2", "2,0", "1,-1"))]
    + [("--format", "json", "oracle", "--q", "3", "--max-height", "10"),
       ("--format", "json", "euler", "--trivial", "--primes-below", "100000", "--s", "2"),
       ("--format", "json", "euler", "--trivial", "--places", "2,3,5,7", "--s", "3")]
    # one call per documented error exit code, 1 to 4
    + [("bogus",),
       ("dual", "NOPE"),
       ("satake", "SL3", "--coweight", "7,0"),
       ("rfactor", "PGL2", "--weights", "0,1", "--values", "1", "--q", "4", "--s", "1")]
)

# Open defects, run once per run with their documented outcome and never
# pinned as correct: the Weyl cap is checked only by `weyl`, and a pole is
# detected by testing a float for exactly 0.0.
CLI_DEFECT = (("--max-weyl", "2", "satake", "GL3", "--coweight", "1,0,0"), 3)
RF_DEFECT = "RFactor(2, (2*sqrt(2),)).evaluate(1.5)"
DIGEST_LEN = 12


@lru_cache(maxsize=None)
def coweights(name: str) -> tuple[tuple[int, ...], ...]:
    """Dominant coweights with every coordinate in [-HEIGHT, HEIGHT], in
    lexicographic order."""
    roots = SIMPLE_ROOTS[name]
    rank = len(roots[0])
    return tuple(v for v in itertools.product(range(-HEIGHT, HEIGHT + 1), repeat=rank)
                 if all(sum(a * x for a, x in zip(alpha, v)) >= 0 for alpha in roots))


@lru_cache(maxsize=None)
def primes(count: int) -> tuple[int, ...]:
    found: list[int] = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return tuple(found)


def reduce_mod_centre(name: str, v) -> tuple[int, ...]:
    z = CENTRE.get(name)
    return tuple(v) if z is None else tuple(a - v[-1] * b for a, b in zip(v, z))


@dataclass
class Workload:
    """One run's ops, in order.  Every pass of the run issues them all."""

    name: str
    kind: str  # "hecke", "rfactor" or "cli"
    keys: list = field(default_factory=list)  # reference slot of each op
    ops: list = field(default_factory=list)  # what the program is given
    properties: dict = field(default_factory=dict)


def _hecke(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    pairs = []
    if name == "hecke-semisimple":
        for d in SEMISIMPLE:
            n = len(coweights(d))
            pairs += [(d, i, j) for i in range(n) for j in range(n)]
    else:
        n2 = len(coweights("GL2"))
        pairs += [("GL2", i, j) for i in range(n2) for j in range(n2)]
        cw = coweights("GL3")
        grid = [("GL3", i, j) for i in range(len(cw)) for j in range(len(cw))]
        # systematic sample over pairs grouped by class modulo the centre,
        # so every class keeps its share and the cost mix varies little
        rng.shuffle(grid)
        grid.sort(key=lambda p: (reduce_mod_centre("GL3", cw[p[1]]),
                                 reduce_mod_centre("GL3", cw[p[2]])))
        pairs += grid[rng.randrange(GL3_SAMPLE_STEP)::GL3_SAMPLE_STEP]
    rng.shuffle(pairs)
    w = Workload(name, "hecke", pairs)
    seen, repeats = set(), 0
    for d, i, j in pairs:
        cw = coweights(d)
        w.ops.append((d, cw[i], cw[j]))
        key = (d, reduce_mod_centre(d, cw[i]), reduce_mod_centre(d, cw[j]))
        repeats += key in seen
        seen.add(key)
    counts = {d: sum(1 for p in pairs if p[0] == d) for d in SIMPLE_ROOTS}
    w.properties = {
        "pairs": len(pairs),
        "pairs_per_datum": {d: c for d, c in counts.items() if c},
        "central_repeat_share": repeats / len(pairs),
    }
    return w


def _rfactor(seed: int) -> Workload:
    rng = random.Random(seed)
    ps = primes(RF_PRIMES)
    w = Workload("rfactor-places", "rfactor")
    for d, tau in RF_TAU_SEED.items():
        squares = set(rng.sample(range(RF_PRIMES), RF_SQUARES))
        for k, p in enumerate(ps):
            square = int(k in squares)
            variant = rng.randrange(len(RF_VARIANTS[len(tau) - 1]))
            w.keys.append((d, k, square, variant))
    rng.shuffle(w.keys)
    w.ops = [rfactor_op(*key) for key in w.keys]
    w.properties = {
        "places": len(w.keys),
        "non_square_share": sum(1 for k in w.keys if not k[2]) / len(w.keys),
        "s": RF_S,
        "representation_seed": {d: list(t) for d, t in RF_TAU_SEED.items()},
    }
    return w


def rfactor_op(datum: str, k: int, square: int, variant: int) -> tuple:
    """(datum, q, base values as strings) for one place."""
    p = primes(RF_PRIMES)[k]
    values = RF_VARIANTS[len(RF_TAU_SEED[datum]) - 1][variant]
    return datum, p * p if square else p, [str(Fraction(v)) for v in values]


def _cli(seed: int) -> Workload:
    calls = list(CLI_CALLS)
    random.Random(seed).shuffle(calls)
    return Workload("cli-cold", "cli", calls, calls, {"calls": len(calls)})


WORKLOADS = ("hecke-semisimple", "hecke-central", "rfactor-places", "cli-cold")


def build(name: str, seed: int) -> Workload:
    if name.startswith("hecke-"):
        return _hecke(name, seed)
    if name == "rfactor-places":
        return _rfactor(seed)
    return _cli(seed)


def reference_digest(reference: dict, kind: str, key) -> str:
    """The pinned digest of one op; hecke and rfactor digests are packed
    in one string per datum, in the order record.py enumerates them."""
    if kind == "cli":
        return reference["cli"][" ".join(key)]
    datum = key[0]
    if kind == "hecke":
        _, i, j = key
        slot = i * len(coweights(datum)) + j
    else:
        _, k, square, variant = key
        slot = (2 * k + square) * len(RF_VARIANTS[len(RF_TAU_SEED[datum]) - 1]) + variant
    return reference[kind][datum][DIGEST_LEN * slot:DIGEST_LEN * (slot + 1)]
