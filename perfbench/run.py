"""The repository benchmark: three workloads, one command.

    python3 perfbench/run.py --workload desktop-media --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times set-ups of fixed seeds (``setup_s``), then sets
the workload up for ``--seed``, measures a fixed amount of work sized
to take half to two thirds of ``--seconds``, checks every output and
prints the end-to-end metrics; a pass still running after twice
``--seconds`` stops and makes the run incorrect.  CPU-bound figures
are given at reference speed (see ``common.SpeedProbe``).

``--trace 1`` runs the same workload and seed twice, untraced and then
traced, and prints the per-layer ledger plus the tracing overhead
(traced over untraced).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit, the
seed and the environment fingerprint.  Each run's full record is also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from common import SpeedProbe, environment, peak_rss_mib  # noqa: E402
from desktop_media import DesktopMedia  # noqa: E402
from relay_lossy import RelayLossy  # noqa: E402
from tracing import Tracer, per_layer_catalogue  # noqa: E402
from typing_fleet import TypingFleet  # noqa: E402

WORKLOADS = {
    "desktop-media": DesktopMedia,
    "typing-fleet": TypingFleet,
    "relay-lossy": RelayLossy,
}
#: Seeds of the set-ups an untraced run times for setup_s.
SETUP_SEEDS = (1, 2, 3, 4, 5)
SETUP_PROBES = 4  # reference-task samples on each side of a set-up
SETUP_PROBE_INTERVAL = 0.05  # wall seconds between samples in a set-up
WALL_CAP = 2  # a pass may take this many times --seconds before it fails
OUT = HERE / "out"


def timed_setup(workload) -> tuple[float, float]:
    """Set ``workload`` up: (wall seconds, the same at reference speed).

    The probe samples on both sides of the set-up and within its loops;
    the time spent sampling inside is taken off the set-up time.  The
    measured pass then starts with a fresh probe.
    """
    probe = workload.probe = SpeedProbe(SETUP_PROBE_INTERVAL)
    probe.sample(SETUP_PROBES)
    probe_ns = probe.cpu_ns
    t0 = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - t0 - (probe.cpu_ns - probe_ns) / 1e9
    probe.sample(SETUP_PROBES)
    workload.probe = SpeedProbe()
    return wall, wall * probe.speed


def run_pass(name: str, seed: int, seconds: float, max_units: int | None,
             traced: bool = False) -> dict:
    """Set up, measure, drain and check one workload instance.

    The pass measures ``max_units`` frames or rounds, by default the
    workload's ``work_per_second`` times ``seconds``.  A pass that has
    not finished after ``WALL_CAP`` times ``seconds`` of wall time
    stops there and is reported as capped, which makes the run
    incorrect: a shorter run is not comparable with a full one.
    """
    workload = WORKLOADS[name](seed)
    units = max_units or max(1, round(workload.work_per_second * seconds))
    wall_cap = seconds * WALL_CAP
    setup = timed_setup(workload)
    tracer = None
    relay_before = [relay.snapshot() for relay in workload.relays]
    try:
        if traced:
            tracer = Tracer(workload)
            tracer.install()
            try:
                done = workload.measure(units, wall_cap)
            finally:
                tracer.uninstall()
        else:
            done = workload.measure(units, wall_cap)
        relay_after = [relay.snapshot() for relay in workload.relays]
        workload.drain()
        report = workload.report()
        report["setup"] = setup
        report["units"] = workload.units
        report["capped"] = done < units
        rescale(report, workload)
        if tracer is not None:
            psnr = report["named"].get("psnr_db", (0.0, "dB"))[0]
            report["layers"] = tracer.metrics(
                workload.units, relay_before, relay_after,
                workload.retained_samples(),
                psnr if math.isfinite(psnr) else 0.0,
            )
            report["tracer"] = tracer
    finally:
        workload.close()
    return report


def rescale(report: dict, workload) -> None:
    """Express ``units_per_cpu_s`` at reference speed.

    It is divided by the speed the workload's :class:`SpeedProbe` saw
    during the pass; the figure as read off the clock stays in
    ``named`` as ``units_per_cpu_s_raw``.
    """
    speed = workload.probe.speed
    value, unit = report["metrics"]["units_per_cpu_s"]
    report["named"]["units_per_cpu_s_raw"] = (value, unit)
    report["named"]["probe_speed"] = (speed, "ratio")
    report["metrics"]["units_per_cpu_s"] = (value / speed, unit)


def untraced(name: str, seed: int, seconds: float,
             max_units: int | None) -> dict:
    """One measured pass plus ``setup_repeats`` timed set-ups per seed
    in ``SETUP_SEEDS``.

    ``setup_s`` times the same set-ups in every run, whatever
    ``--seed`` is, so that it follows the program and the machine
    rather than how long one loss realisation makes the initial sync.
    It is the mean over those seeds of each seed's median set-up time.
    """
    times: dict[int, list] = {setup_seed: [] for setup_seed in SETUP_SEEDS}
    for _ in range(WORKLOADS[name].setup_repeats):
        for setup_seed in SETUP_SEEDS:
            workload = WORKLOADS[name](setup_seed)
            try:
                times[setup_seed].append(timed_setup(workload))
            finally:
                workload.close()

    def typical(index: int) -> float:
        return statistics.fmean(
            statistics.median(t[index] for t in per_seed)
            for per_seed in times.values()
        )

    report = run_pass(name, seed, seconds, max_units)
    metrics = dict(report["metrics"])
    metrics["setup_s"] = (typical(1), "s")
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    report["metrics"] = metrics
    report["named"]["setup_s_raw"] = (typical(0), "s")
    report["setups_s"] = times
    return report


def traced(name: str, seed: int, seconds: float,
           max_units: int | None) -> dict:
    base = run_pass(name, seed, seconds, max_units)
    report = run_pass(name, seed, seconds, max_units, traced=True)
    layers = report["layers"]
    plain, spanned = base["metrics"], report["metrics"]

    def over(key, invert=False):
        a, b = plain[key][0], spanned[key][0]
        if invert:
            a, b = b, a
        return b / a if a else 0.0

    layers["trace.overhead.latency_ms_p50"] = over("latency_ms_p50")
    layers["trace.overhead.latency_ms_tail"] = over("latency_ms_tail")
    layers["trace.overhead.cpu_per_unit"] = over("units_per_cpu_s", True)
    layers["trace.overhead.wire_kib_per_unit"] = over("wire_kib_per_unit")
    units = {name: unit for name, unit, _better in per_layer_catalogue()}
    report["metrics"] = {
        key: (value, units[key]) for key, value in layers.items()
    }
    report["untraced"] = base
    report["attempted"] += base["attempted"]
    report["failed"] += base["failed"]
    report["capped"] = report["capped"] or base["capped"]
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-units", type=int, default=None,
                        help="measure this many frames or rounds instead")
    args = parser.parse_args(argv)

    run = traced if args.trace else untraced
    report = run(args.workload, args.seed, args.seconds, args.max_units)
    env = environment()
    attempted, failed = report["attempted"], report["failed"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}"
          f" units {report['units']:.1f} {WORKLOADS[args.workload].unit}"
          f" capped {report['capped']}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    named = dict(report["named"])
    named["failed_fraction"] = (failed / attempted if attempted else 1.0,
                                "ratio")
    for key, (value, unit) in {**named, **report["metrics"]}.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed}"
          f" latency_samples {report['samples']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.npz")
        report["spans_dropped"] = tracer.spans_dropped
        report["untraced"].pop("fingerprint", None)
    report.pop("fingerprint", None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "env": env, **report}
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str)
    )

    result = {
        "correct": failed == 0 and attempted > 0 and not report["capped"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
