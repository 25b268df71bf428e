"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json

import numpy as np
import pytest

from run import main, run_pass  # puts src/ on sys.path first

from common import ROOT  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Frames (desktop-media) or rounds (the open-loop workloads) per test run.
SMALL = {"desktop-media": 3, "typing-fleet": 60, "relay-lossy": 150}


@pytest.fixture(scope="module", params=sorted(SMALL))
def passes(request):
    name = request.param
    plain = run_pass(name, 7, 120.0, SMALL[name])
    traced = run_pass(name, 7, 120.0, SMALL[name], traced=True)
    return name, plain, traced


def test_traced_and_untraced_runs_agree(passes):
    _name, plain, traced = passes
    assert plain["attempted"] > 0
    assert plain["failed"] == 0
    assert plain["fingerprint"] == traced["fingerprint"]


def test_child_self_time_within_parent_duration(passes):
    _name, _plain, traced = passes
    spans = traced["tracer"].spans()
    assert len(spans["name"]) > 0
    duration = spans["end_ns"] - spans["start_ns"]
    assert (duration >= 0).all()
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.zeros_like(duration)
    np.add.at(covered, parent[has_parent], duration[has_parent])
    self_time = duration - covered
    assert (self_time >= 0).all()
    assert (self_time[has_parent] <= duration[parent[has_parent]]).all()
    # Parents open before and close after each child.
    assert (spans["start_ns"][has_parent]
            >= spans["start_ns"][parent[has_parent]]).all()
    assert (spans["end_ns"][has_parent]
            <= spans["end_ns"][parent[has_parent]]).all()


IDLE = {
    "desktop-media": ("relay.pump", "recovery.poll", "retransmit.lookup",
                      "rtp.jitter_insert",
                      "server.media_round", "obs.observe"),
    "typing-fleet": ("codecs.lossy_encode", "codecs.lossy_decode",
                     "relay.pump", "net.tcp_send"),
    "relay-lossy": ("codecs.lossy_encode", "codecs.lossy_decode",
                    "events.inject", "net.tcp_send", "server.media_round",
                    "obs.observe"),
}


def test_idle_layers_show_no_calls(passes):
    name, _plain, traced = passes
    layers = traced["layers"]
    for layer in IDLE[name]:
        assert layers[f"{layer}.calls"] == 0.0, layer


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_names_every_metric(capsys, trace):
    main(["--workload", "relay-lossy", "--seed", "3", "--seconds", "30",
          "--trace", str(trace), "--max-units", "40"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in CONFIG[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_capped_run_is_incorrect(capsys):
    main(["--workload", "relay-lossy", "--seed", "3", "--seconds", "0.5",
          "--trace", "0", "--max-units", "1000000"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_cpu_figures_rescaled_by_probe_speed(passes):
    _name, plain, _traced = passes
    speed = plain["named"]["probe_speed"][0]
    raw = plain["named"]["units_per_cpu_s_raw"][0]
    assert speed > 0
    assert plain["metrics"]["units_per_cpu_s"][0] == pytest.approx(raw / speed)
