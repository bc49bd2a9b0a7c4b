"""Record the reference digest of every op the workloads can issue.

    PYTHONPATH=src python3 bench/record.py

Run it at the commit whose outputs are pinned as correct; it rewrites
bench/reference.json.  The known-defect probes are never recorded.
"""

import json

import workloads
from run import BENCH, cli_call, cli_digest
from worker import PREPARE, Clock, run_ops


def packed(out: list[str]) -> str:
    bad = [d for d in out if len(d) != workloads.DIGEST_LEN or d.startswith("error")]
    if bad:
        raise SystemExit(f"cannot pin failing ops: {bad[:5]}")
    return "".join(out)


def digests(kind: str, ops) -> str:
    clock = Clock()
    prepared, call, check = PREPARE[kind](ops, clock)
    return packed(run_ops(prepared, call, check, clock))


def main() -> None:
    reference = {"hecke": {}, "rfactor": {}, "cli": {}}
    for datum in workloads.SIMPLE_ROOTS:
        cw = workloads.coweights(datum)
        reference["hecke"][datum] = digests("hecke", [(datum, a, b) for a in cw for b in cw])
    for datum, tau in workloads.RF_TAU_SEED.items():
        variants = len(workloads.RF_VARIANTS[len(tau) - 1])
        keys = [(datum, k, square, v) for k in range(workloads.RF_PRIMES)
                for square in (0, 1) for v in range(variants)]
        reference["rfactor"][datum] = digests(
            "rfactor", [workloads.rfactor_op(*key) for key in keys])
    for argv in workloads.CLI_CALLS:
        proc, _, _ = cli_call(argv)
        reference["cli"][" ".join(argv)] = cli_digest(proc)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
