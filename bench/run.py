"""Benchmark of heckedual: four workloads, end-to-end metrics and a traced
per-layer run.

    python3 bench/run.py --workload hecke-semisimple --seed 1 --seconds 20 --trace 0

The library is taken from ``src/`` beside this directory.  Load comes from
this one process: a closed loop with one client, child processes one at a
time, no threads.  A run repeats whole passes over the seed's ops while
another pass fits in ``--seconds``; each pass of a hecke or rfactor
workload is a fresh interpreter, and each cli-cold op is one.  Every
output is compared with a digest pinned in ``reference.json``.  Times
are reported at reference speed (calib.py), raw wall clock beside them.

With ``--trace 0`` the last line of stdout is a JSON summary holding the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics and the tracing overhead.
Details and the reasons for each workload are in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from calib import BARE_REF
from tracer import SPANS, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CHILD_TIMEOUT = 150
STARTUP_PROBES = 11
LIMITS = "no CPU pinning, no cache dropping, no hardware counters; wall clock and rusage only"

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

_HECKE_OPS = "ops_per_s and op_p90_ms on both hecke workloads; no change on rfactor-places"
_SETUP = "setup_s on the hecke workloads; op_p50_ms on cli-cold"
_PEEL = "ops_per_s on the hecke workloads"
_TOPS = ("setup_s on the hecke workloads, where every top is first enumerated; "
         "ops_per_s only if op-time calls stop hitting the cache")
_IMAGES = "setup_s and peak_rss_mb, on hecke-central much more than on hecke-semisimple"
_RFUNC = "ops_per_s on rfactor-places only"
# (name, unit, better, end-to-end metric it should move)
PER_LAYER = (
    ("lattice.ga_mul.calls", "count", "lower", _HECKE_OPS),
    ("lattice.ga_mul.self_s", "s", "lower", _HECKE_OPS),
    ("lattice.ga_mul.terms_out", "count", "lower", _HECKE_OPS),
    ("lattice.ga_sub.calls", "count", "lower", _HECKE_OPS),
    ("lattice.ga_sub.self_s", "s", "lower", _HECKE_OPS),
    ("lattice.laurent_mul.calls", "count", "lower", _HECKE_OPS),
    ("lattice.ga_exact_div.calls", "count", "lower", _SETUP),
    ("lattice.ga_exact_div.self_s", "s", "lower", _SETUP),
    ("lattice.ga_apply_map.calls", "count", "lower", _SETUP),
    ("lattice.ga_apply_map.self_s", "s", "lower", _SETUP),
    ("rootdatum.weyl_group.calls", "count", "lower", _SETUP),
    ("rootdatum.weyl_group.self_s", "s", "lower", _SETUP),
    ("satake.image_extended.calls", "count", "lower", _SETUP),
    ("satake.image_extended.self_s", "s", "lower", _SETUP),
    ("rootdatum.dominant_below.calls", "count", "lower", _TOPS),
    ("rootdatum.dominant_below.self_s", "s", "lower", _TOPS),
    ("rootdatum.dominant_below.points", "count", "lower", _TOPS),
    ("satake.structure_polynomials.calls", "count", "lower", _PEEL),
    ("satake.structure_polynomials.self_s", "s", "lower", _PEEL),
    ("satake.peel.visited", "count", "lower", _PEEL),
    ("satake.peel.hits", "count", "lower", _PEEL),
    ("satake.peel.hit_ratio", "ratio", "higher", _PEEL),
    ("satake.image.calls", "count", "lower", _IMAGES),
    ("satake.image.distinct", "count", "lower", _IMAGES),
    ("satake.image.terms", "count", "lower", _IMAGES),
    ("satake.tree_structure_constants.calls", "count", "lower", "op_p90_ms on cli-cold"),
    ("satake.tree_structure_constants.self_s", "s", "lower", "op_p90_ms on cli-cold"),
    ("dualdata.langlands_dual_data.self_s", "s", "lower", "setup_s"),
) + tuple(
    (f"rfunc.{fn}.{kind}", unit, "lower", _RFUNC)
    for fn in ("make_parameter", "local_rfactor", "evaluate", "split_by_sqrt", "epsilon_twist")
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("cli.startup_s", "s", "lower", "op_p50_ms on cli-cold; setup_s everywhere"),
    ("cli.main.self_s", "s", "lower", "op_p50_ms on cli-cold"),
    ("trace.overhead", "ratio", "higher", "none: traced over untraced ops_per_s"),
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(cmd, payload: bytes | None = None) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; returns it and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, input=payload, capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return proc, time.perf_counter() - start


def cli_digest(proc: subprocess.CompletedProcess) -> str:
    return f"{hashlib.sha256(proc.stdout).hexdigest()[:workloads.DIGEST_LEN]}/{proc.returncode}"


def cli_call(argv=(), mode: str = "-") -> tuple[subprocess.CompletedProcess, float, float]:
    """One CLI call in a fresh process (see launch.py), right after a bare
    interpreter launch: the process, and its time at reference speed and raw."""
    _, bare = spawn([sys.executable, str(BENCH / "launch.py"), "--bare"])
    proc, wall = spawn([sys.executable, str(BENCH / "launch.py"), mode, *argv])
    return proc, wall * BARE_REF / bare, wall


def pass_layers(dumps) -> dict:
    """Per-layer totals of one traced pass, from the span dumps of its processes."""
    calls, self_s, counts = Counter(), Counter(), Counter()
    missing = set()
    for dump in dumps:
        c, s = layer_totals(dump["spans"])
        calls.update(c)
        self_s.update(s)
        counts.update(dump["counts"])
        missing.update(dump["missing"])
    out = dict(counts, missing=sorted(missing))
    for name in list(SPANS) + ["cli.main"]:
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = float(self_s[name])
    visited = counts["satake.peel.visited"]
    out["satake.peel.hit_ratio"] = counts["satake.peel.hits"] / visited if visited else 0.0
    return out


def worker_pass(w: workloads.Workload, spans_out: Path | None, defect: bool) -> dict:
    job = {"kind": w.kind, "ops": w.ops, "defect": defect,
           "spans_out": str(spans_out) if spans_out else None}
    payload = json.dumps(job).encode()
    job_stamp = time.monotonic()
    proc, _ = spawn([sys.executable, str(BENCH / "worker.py"), repr(job_stamp)], payload)
    if proc.returncode:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    result = json.loads(proc.stdout)
    if spans_out:
        result["layers"] = pass_layers([json.loads(spans_out.read_text())])
    return result


def cli_pass(w: workloads.Workload, spans_out: Path | None) -> dict:
    result = {"lat": [], "lat_raw": [], "out": []}
    dumps = []
    for argv in w.ops:
        proc, seconds, raw = cli_call(argv, str(spans_out) if spans_out else "-")
        result["lat"].append(seconds)
        result["lat_raw"].append(raw)
        result["out"].append(cli_digest(proc))
        if spans_out:
            dumps.append(json.loads(spans_out.read_text()))
    if spans_out:
        spans_out.write_text(json.dumps(dumps))
        result["layers"] = pass_layers(dumps)
    return result


def import_times() -> tuple[list[float], list[float]]:
    """Fresh interpreters importing heckedual.cli: at reference speed, and raw."""
    scaled, raw = [], []
    for _ in range(STARTUP_PROBES):
        _, seconds, wall = cli_call(mode="--import")
        scaled.append(seconds)
        raw.append(wall)
    return scaled, raw


def percentile(sorted_values, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = math.ceil(p * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timing(latencies: list[float], setups: list[float]) -> tuple[dict, int, int]:
    """Timing metrics of one run, its sample count and the samples above p90."""
    lat = sorted(latencies)
    p50, _ = percentile(lat, 0.5)
    p90, above_p90 = percentile(lat, 0.9)
    if above_p90 < 10:
        raise RuntimeError(f"only {above_p90} samples above p90; a pass needs more ops")
    metrics = {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": p50 * 1e3,
               "op_p90_ms": p90 * 1e3, "setup_s": statistics.median(setups)}
    return metrics, len(lat), above_p90


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def run(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads((BENCH / "reference.json").read_text())
    expected = [workloads.reference_digest(reference, w.kind, key) for key in w.keys]
    spans_dir = RESULTS / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + seconds
    # cli-cold's set-up is what every call pays before main: interpreter and import
    setups = import_times() if w.kind == "cli" else ([], [])
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        spans_out = spans_dir / f"{w.name}-seed{seed}-pass{len(passes)}.json" if traced else None
        start = time.monotonic()
        if w.kind == "cli":
            result = cli_pass(w, spans_out)
        else:
            result = worker_pass(w, spans_out, defect=not passes and w.kind == "rfactor")
        result["traced"], result["wall"] = traced, time.monotonic() - start
        passes.append(result)
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        estimate = next(p["wall"] for p in reversed(passes) if p["traced"] == next_traced)
        if time.monotonic() + estimate > deadline:
            break

    attempted = failed = 0
    mismatches = []
    for p in passes:
        for k, (got, want) in enumerate(zip(p["out"], expected)):
            attempted += 1
            if got != want:
                failed += 1
                mismatches.append(f"{w.name} op {w.keys[k]}: got {got}, pinned {want}")

    defects = {}  # description -> (documented outcome, observed outcome)
    if w.kind == "cli":
        argv, code = workloads.CLI_DEFECT
        proc, _, _ = cli_call(argv)
        defects[" ".join(argv)] = (f"exit {code}", f"exit {proc.returncode}")
    elif w.kind == "rfactor":
        defects[workloads.RF_DEFECT] = ("PoleError", passes[0]["defect"])
    defects_failed = sum(1 for want, got in defects.values() if got != want)

    untraced = [p for p in passes if not p["traced"]]
    if not setups[0]:
        setups = ([p["setup_s"] for p in untraced], [p["setup_raw_s"] for p in untraced])
    end_to_end, samples, above_p90 = timing([x for p in untraced for x in p["lat"]], setups[0])
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    raw, _, _ = timing([x for p in untraced for x in p["lat_raw"]], setups[1])
    properties = dict(w.properties)
    if "weyl" in passes[0]:
        properties["weyl_order"] = passes[0]["weyl"]
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "properties": properties,
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced)},
        "samples": samples, "samples_above_p90": above_p90, "setup_samples": len(setups[0]),
        "end_to_end": end_to_end, "raw_wall_clock": raw,
        "error_rate": (failed + defects_failed) / (attempted + len(defects)),
        "attempted": attempted, "failed": failed, "mismatches": mismatches[:20],
        "known_defects": defects,
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        traced_lat = [x for p in traced for x in p["lat"]]
        layers = {name: statistics.median(p["layers"].get(name, 0) for p in traced)
                  for name, *_ in PER_LAYER}
        # an import probe at reference speed, less the bare launch it is scaled by
        layers["cli.startup_s"] = statistics.median(import_times()[0]) - BARE_REF
        layers["trace.overhead"] = len(traced_lat) / sum(traced_lat) / end_to_end["ops_per_s"]
        report["per_layer"] = layers
        report["missing_layers"] = sorted({m for p in traced for m in p["layers"]["missing"]})
    report["environment"] = {
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "measurement_limits": LIMITS,
    }
    return report


def show(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {report['passes']}")
    for key, value in report["properties"].items():
        print(f"  input {key}: {value}")
    if report["trace"]:
        if report["missing_layers"]:
            print(f"  not traced, gone from the package: {report['missing_layers']}")
        for name, unit, better, moves in PER_LAYER:
            print(f"  {name:40s} {report['per_layer'][name]:14.6g} {unit:6s} "
                  f"({better} is better; should move {moves})")
    else:
        for name, unit in END_TO_END:
            print(f"  {name:12s} {report['end_to_end'][name]:12.6g} {unit}")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in report["raw_wall_clock"].items())
        print(f"  (times above are at reference speed, see calib.py; raw wall clock: {raw})")
        print(f"  latency samples {report['samples']}, {report['samples_above_p90']} above p90; "
              f"setup samples {report['setup_samples']}")
    print(f"  error_rate   {report['error_rate']:12.6g} 1  "
          f"({report['failed']} of {report['attempted']} ops differ from their pinned digest; "
          f"known-defect probes: {report['known_defects'] or 'none'})")
    for line in report["mismatches"]:
        print("  mismatch: " + line)
    env = report["environment"]
    print(f"  env: git {env['git_sha']}, python {env['python']}, nproc {env['nproc']}; "
          f"{env['measurement_limits']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heckedual" / "__init__.py").is_file():
        print(f"error: no heckedual sources at {SRC}", file=sys.stderr)
        return 2
    report = run(workloads.build(args.workload, args.seed), args.seed, args.seconds,
                 bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    show(report)
    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
