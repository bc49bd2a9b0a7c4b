"""One pass of a hecke or rfactor workload, in a fresh interpreter.

Reads its job as JSON on stdin and writes one JSON object to stdout: the
set-up time (from the parent's spawn stamp to the first timed op), each
op's latency and a digest of each op's output.  Only the library calls are
timed; digests and checks run between the timed calls.  Times are given
raw and at reference speed (see calib.py): the calibration loop runs at
start, every CAL_EVERY seconds through set-up and ops, and before the
first op.

    python3 bench/worker.py SPAWN_STAMP < job.json      (with src/ on PYTHONPATH)

SPAWN_STAMP is time.monotonic() in the parent just before the spawn.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from fractions import Fraction

from calib import loop_time, scale
from heckedual import dualdata, rfunc, rootdatum, satake
from heckedual.errors import PoleError
from workloads import DIGEST_LEN, RF_S, RF_TAU_SEED

CAL_EVERY = 0.02


class Clock:
    """Calibration loops every CAL_EVERY seconds, and op latencies."""

    def __init__(self):
        self.loops: list[float] = []
        self.marks: list[int] = []  # loops[k] ran before op marks[k]
        self.raw: list[float] = []
        self.calibrate()

    def calibrate(self):
        self.loops.append(loop_time())
        self.marks.append(len(self.raw))
        self.last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.last > CAL_EVERY:
            self.calibrate()

    def add(self, seconds: float):
        self.raw.append(seconds)
        self.tick()

    def scaled(self, first_loop: int) -> list[float]:
        """Latencies at reference speed, each by the faster loop around it
        (a loop only reads slow when something else took the core)."""
        self.calibrate()
        loops, marks = self.loops[first_loop:], self.marks[first_loop:]
        out = []
        for k in range(len(loops) - 1):
            loop = min(loops[k], loops[k + 1])
            out += [scale(x, loop) for x in self.raw[marks[k]:marks[k + 1]]]
        return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


def hecke_digest(expansion) -> str:
    return digest(";".join(f"{nu}:{c.items()}" for nu, c in sorted(expansion.coeffs.items())))


def field_text(x) -> str:
    """Canonical text of an element of Q or Q(sqrt(rad))."""
    if isinstance(x, Fraction):
        return str(x)
    if x.b == 0:
        return str(x.a)
    return f"{x.a}+({x.b})*sqrt({x.rad})"


def hecke_ops(ops, clock: Clock):
    """Warm every image the ops read (operands and every peeled coweight);
    returns the prepared ops, the timed call and the output check."""
    ops = [(d, tuple(lam), tuple(mu)) for d, lam, mu in ops]
    dds = {d: dualdata.langlands_dual_data(rootdatum.BUILTINS[d]) for d in sorted({op[0] for op in ops})}
    tops = set()
    for d, lam, mu in ops:
        for v in (lam, mu):
            satake.satake_image(dds[d], v)
            clock.tick()
        tops.add((d, tuple(a + b for a, b in zip(lam, mu))))
    for d, top in sorted(tops):
        for nu in rootdatum.dominant_below(dds[d].base, top):
            satake.satake_image(dds[d], nu)
            clock.tick()
    prepared = [(dds[d], lam, mu) for d, lam, mu in ops]
    return prepared, lambda op: satake.structure_polynomials(*op), hecke_digest


def place(op):
    dd, tau, q, values = op
    x = rfunc.make_parameter(dd, q, values)
    factor = rfunc.local_rfactor(x, tau)
    value = rfunc.partial_rfunction([(q, x)], tau, RF_S)
    root = rfunc.sqrt_of(q)
    plus = rfunc.split_by_sqrt(x, root)
    minus = rfunc.split_by_sqrt(x, -root)
    return x, factor, value, plus, minus, rfunc.epsilon_twist(plus)


def place_digest(result) -> str:
    x, factor, value, plus, minus, twisted = result
    # the paper's parity identity: the two roots differ by the twist
    if minus != twisted:
        return "error:parity"
    parts = [" ".join(field_text(v) for v in values)
             for values in (x.values, factor.inverse_roots, plus.values, minus.values)]
    return digest("|".join(parts + [f"{value:.12g}"]))


def rfactor_ops(ops, clock: Clock):
    dds = {d: dualdata.langlands_dual_data(rootdatum.BUILTINS[d]) for d in RF_TAU_SEED}
    taus = {d: rfunc.DualRepresentation.from_orbits(dds[d], [seed])
            for d, seed in RF_TAU_SEED.items()}
    prepared = [(dds[d], taus[d], Fraction(q), [Fraction(v) for v in values])
                for d, q, values in ops]
    return prepared, place, place_digest


PREPARE = {"hecke": hecke_ops, "rfactor": rfactor_ops}


def run_ops(ops, call, check, clock: Clock) -> list[str]:
    """Time each call; check its output outside the timed region."""
    out = []
    perf = time.perf_counter
    for op in ops:
        start = perf()
        try:
            result = call(op)
        except Exception as exc:  # a failed op is recorded, not fatal
            clock.add(perf() - start)
            out.append("error:" + type(exc).__name__)
            continue
        clock.add(perf() - start)
        out.append(check(result))
    return out


def rfactor_defect() -> str:
    """Outcome of a true pole: inverse root 2*sqrt(2), q = 2, s = 3/2."""
    root = rfunc.QuadExt(Fraction(0), Fraction(2), Fraction(2))
    try:
        value = rfunc.RFactor(Fraction(2), (root,)).evaluate(1.5)
    except PoleError:
        return "PoleError"
    return f"returned {value!r}"


def main() -> int:
    spawn_stamp = float(sys.argv[1])
    clock = Clock()
    job = json.load(sys.stdin)
    tracer = None
    if job["spans_out"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    ops, call, check = PREPARE[job["kind"]](job["ops"], clock)
    clock.calibrate()
    setup_loops = len(clock.loops)
    first = time.monotonic()
    out = run_ops(ops, call, check, clock)
    if tracer is not None:
        tracer.dump(job["spans_out"])
    setup_raw = first - spawn_stamp - sum(clock.loops[:setup_loops])
    result = {
        "setup_s": scale(setup_raw, statistics.median(clock.loops[:setup_loops])),
        "setup_raw_s": setup_raw,
        "lat": clock.scaled(setup_loops - 1),
        "lat_raw": clock.raw,
        "out": out,
        "weyl": {d: len(rootdatum.weyl_group(rootdatum.BUILTINS[d]))
                 for d in sorted({op[0] for op in job["ops"]})},
    }
    if job.get("defect"):
        result["defect"] = rfactor_defect()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
