"""The repo benchmark: one seeded workload per run, outputs checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan_series --seed 1337 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The
last line of standard output is the result object; the line before it
carries the run's metadata (scenario, scale, seed, fingerprint, cores,
block count, Python and numpy versions), which is also written with the
result, and with the trace when tracing, under ``perfbench/out/``.

``--smoke`` runs every workload at ``tiny`` scale for one second in
both modes and checks that each emits every declared metric with its
unit; ``--smoke --workload W --trace T`` is one such run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("scan_series", "ddos_playbook", "serve_live")
#: Smoke runs: scale and measuring window of every workload.
SMOKE_SCALE = "tiny"
SMOKE_SECONDS = 1.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-scale 1 s run of the workload, or of every "
                             "workload in both modes when none is named")
    return parser.parse_args(argv)


def run_workload(opts, spec: dict) -> int:
    """Run one workload and print its metadata and result lines."""
    import importlib

    import common

    module = importlib.import_module(opts.workload)
    scale = SMOKE_SCALE if opts.smoke else module.SCALE
    layers = common.Layers(enabled=bool(opts.trace))
    started = time.perf_counter()
    outcome = module.run(opts, layers, scale)
    wall_s = time.perf_counter() - started

    if opts.trace:
        declared = spec["per_layer"]
        measured = dict(outcome.per_layer)
        if set(measured) != set(module.LAYERS):
            raise RuntimeError(
                f"{opts.workload} measured layers {sorted(measured)}, "
                f"declared {sorted(module.LAYERS)}"
            )
        # Layers off this workload's path did no work in this run.
        for entry in declared:
            measured.setdefault(entry["name"], 0.0)
    else:
        declared = spec["end_to_end"]
        measured = dict(outcome.end_to_end)
    names = {entry["name"] for entry in declared}
    if set(measured) != names:
        raise RuntimeError(
            f"{opts.workload} emitted {sorted(measured)}, BENCHMARK.json "
            f"declares {sorted(names)}"
        )
    metrics = {
        entry["name"]: {"value": float(measured[entry["name"]]), "unit": entry["unit"]}
        for entry in declared
    }
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    meta = dict(outcome.meta, trace=opts.trace, wall_s=round(wall_s, 3),
                seconds=opts.seconds, smoke=opts.smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    common.dump_json(os.path.join(OUT_DIR, stem + ".result.json"),
                     {"meta": meta, "problems": outcome.problems, **result})
    if opts.trace:
        layers.write(os.path.join(OUT_DIR, stem + ".trace.json"), meta)
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


def smoke(spec: dict) -> int:
    """Every workload at tiny scale, untraced and traced, checked."""
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--trace", str(trace), "--smoke",
            ]
            started = time.perf_counter()
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=170, cwd=ROOT)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = spec["per_layer" if trace else "end_to_end"]
            expected = {entry["name"]: entry["unit"] for entry in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: metrics/units {got} != {expected}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: checks did not pass: {result} {proc.stderr[-2000:]}")
            print(f"smoke {label}: {result['attempted']} ops, "
                  f"{time.perf_counter() - started:.1f} s")
    for failure in failures:
        print(f"perfbench smoke: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    """Parse arguments and run one workload (or the smoke); exit code."""
    opts = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no program sources under {SRC}; run from a full checkout")
    if not os.path.isfile(SPEC_PATH):
        return _fail(f"missing {SPEC_PATH}")
    spec = _load_spec()
    if opts.smoke and opts.workload is None:
        return smoke(spec)
    if opts.workload is None:
        return _fail("--workload is required (or pass --smoke)")
    if opts.smoke:
        opts.seconds = SMOKE_SECONDS
    elif opts.seconds is None:
        opts.seconds = float(spec["run_seconds"])
    sys.path.insert(0, SRC)
    return run_workload(opts, spec)


if __name__ == "__main__":
    sys.exit(main())
