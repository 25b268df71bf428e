"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --workloads relay-lossy --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --record perfbench/baseline.json

For every workload and seed this runs ``run.py --trace 0`` for the
``run_seconds`` in ``BENCHMARK.json``, then prints each end-to-end
metric's median and its spread: the distance between the first and
third quartiles as a share of the median.  A spread at or above a third
of the metric's bound is flagged.  ``--record`` also makes one traced
run per workload and writes the medians, quartiles, workload-named
metrics and the per-layer ledger, with the environment fingerprint.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; returns its full record from ``perfbench/out``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect: {result}")
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((HERE / "out" / f"{stem}.json").read_text())


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in CONFIG["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--record", type=Path, default=None,
                        help="write medians and a traced ledger here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    record: dict = {"run_seconds": CONFIG["run_seconds"],
                    "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        named: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            out = run(workload, seed, 0)
            record["env"] = out["env"]
            for key, (value, unit) in out["metrics"].items():
                values.setdefault(key, []).append(value)
                units[key] = unit
            for key, (value, unit) in out["named"].items():
                named.setdefault(key, []).append(value)
                units[key] = unit
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, (v, _u) in out["metrics"].items()),
                flush=True)
        row = {"end_to_end": {}, "named": {}}
        for key, series in values.items():
            stats = summarise(series)
            row["end_to_end"][key] = {**stats, "unit": units[key]}
            flag = ""
            if stats["spread"] >= bounds[key] / 3:
                flag = "  <-- spread not below a third of the bound"
                steady = False
            print(f"  {key:18s} median {stats['median']:12.5g} {units[key]:4s}"
                  f" spread {stats['spread']:.4f} bound {bounds[key]}{flag}")
        for key, series in named.items():
            row["named"][key] = {
                "median": statistics.median(series), "unit": units[key]
            }
        if args.record is not None:
            traced = run(workload, args.seeds[0], 1)
            row["per_layer_seed"] = args.seeds[0]
            row["per_layer"] = {
                key: {"value": value, "unit": unit}
                for key, (value, unit) in traced["metrics"].items()
            }
        record["workloads"][workload] = row
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.record}")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
