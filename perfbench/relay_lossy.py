"""relay-lossy: one AH feeds a 2-level relay tree over lossy hops.

Open loop on a simulated clock.  The presenter types into the AH's
editor every 0.25 virtual s, give or take 20%; a 2-level tree built
by ``build_relay_tree`` carries the stream to real ``Participant``
viewers at the leaves, with seeded i.i.d. loss on every hop.  One
operation is one (edit, viewer) delivery, timed from when the edit was
due until that viewer's editor is pixel-exact with the AH's.
"""

from __future__ import annotations

import random
import time
from collections import deque

from repro.apps import TextEditorApp
from repro.net.channel import ChannelConfig
from repro.relay import build_relay_tree
from repro.relay.tree import attach_viewer
from repro.rtp.clock import SimulatedClock
from repro.sharing import ApplicationHost, SharingConfig
from repro.surface import Rect

from common import (
    CpuTimer, Ops, SpeedProbe, Workload, jittered, keystrokes, percentile,
)

SCREEN = (480, 320)
EDITOR_RECT = Rect(8, 8, 464, 304)
FANOUTS = (2, 2)
VIEWERS_PER_LEAF = 4
LOSS = 0.02
HOP_DELAY = 0.01
DT = 0.02  # virtual seconds per simulation round
EDIT_EVERY = 0.25
DELIVERY_DEADLINE = 2.0  # virtual seconds
SETUP_LIMIT = 30.0  # virtual seconds the initial sync may take


class _Viewer:
    __slots__ = ("participant", "pending", "seen")

    def __init__(self, participant) -> None:
        self.participant = participant
        self.pending: deque = deque()  # due times of undelivered edits
        self.seen = -1

    def changed(self) -> bool:
        participant = self.participant
        state = participant.updates_applied + participant.moves_applied
        if state == self.seen:
            return False
        self.seen = state
        return True


class RelayLossy(Workload):
    name = "relay-lossy"
    unit = "viewer-s"
    work_per_second = 280
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.link_seed = rng.randrange(1 << 20) * 1024
        self.ah_seed = rng.randrange(1 << 30)
        self.relay_seed = rng.randrange(1 << 30)
        self.viewer_seed = rng.randrange(1 << 30)
        self.edit_phase = rng.uniform(0.0, EDIT_EVERY)
        self.keys = keystrokes(random.Random(rng.randrange(1 << 30)))
        self.gaps = random.Random(rng.randrange(1 << 30))
        self.ops = Ops(deadline=DELIVERY_DEADLINE)
        self.ah_cpu = CpuTimer()
        self.relay_cpu = CpuTimer()
        self.viewer_cpu = CpuTimer()
        self.probe = SpeedProbe()
        self.rounds = 0

    # -- Set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.clock = SimulatedClock()
        self.ah = ApplicationHost(
            screen_width=SCREEN[0], screen_height=SCREEN[1],
            config=SharingConfig(), clock=self.clock,
            rng=random.Random(self.ah_seed),
        )
        window = self.ah.windows.create_window(EDITOR_RECT, title="slides")
        self.editor = TextEditorApp(window)
        self.ah.apps.attach(self.editor)
        self.tree = build_relay_tree(
            self.ah, self.clock, fanouts=FANOUTS, viewers_per_leaf=0,
            channel_config=ChannelConfig(
                delay=HOP_DELAY, loss_rate=LOSS, seed=self.link_seed
            ),
            rng=random.Random(self.relay_seed),
        )
        # Viewers are attached here rather than by build_relay_tree so
        # that each gets a seeded RNG (RTCP timing) and a seeded link.
        viewer_rng = random.Random(self.viewer_seed)
        seed = self.link_seed + 512
        for leaf_index, leaf in enumerate(self.tree.leaves):
            for i in range(VIEWERS_PER_LEAF):
                self.tree.viewers.append(attach_viewer(
                    leaf, f"viewer-{leaf_index}-{i}", self.clock,
                    channel_config=ChannelConfig(
                        delay=HOP_DELAY, loss_rate=LOSS, seed=seed
                    ),
                    rng=viewer_rng,
                ))
                seed += 2
        self.viewers = [_Viewer(p) for p in self.tree.viewers]
        self.relays = self.tree.relays
        limit = self.clock.now() + SETUP_LIMIT
        while not self._all_converged():
            if self.clock.now() > limit:
                raise RuntimeError("initial relay-tree sync did not complete")
            self._round()
            self.probe.tick()

    def _all_converged(self) -> bool:
        return all(
            v.participant.converged_with(self.ah.windows) for v in self.viewers
        )

    def _round(self) -> None:
        with self.ah_cpu:
            self.ah.advance(DT)
        with self.relay_cpu:
            self.tree.pump()
        with self.viewer_cpu:
            self.tree.pump_viewers()
        self.clock.advance(DT)

    # -- Measurement ----------------------------------------------------------

    def measure(self, units: int, wall_cap: float) -> int:
        self.t_start = self.clock.now()
        self.bytes0 = self._bytes_sent()
        cpu0 = (self.ah_cpu.total_ns, self.relay_cpu.total_ns,
                self.viewer_cpu.total_ns)
        next_edit = self.t_start + self.edit_phase
        end = time.perf_counter() + wall_cap
        while self.rounds < units and time.perf_counter() < end:
            self.request = self.rounds
            now = self.clock.now()
            while next_edit <= now:
                self.editor.type_text(next(self.keys))
                for viewer in self.viewers:
                    viewer.pending.append(next_edit)
                self.ops.attempted += len(self.viewers)
                next_edit += jittered(self.gaps, EDIT_EVERY)
            self._round()
            self._check(now)
            self.rounds += 1
            self.probe.tick()
        self.t_end = self.clock.now()
        self.bytes1 = self._bytes_sent()
        self.tier_s = tuple(
            (timer.total_ns - start) / 1e9
            for timer, start in zip(
                (self.ah_cpu, self.relay_cpu, self.viewer_cpu), cpu0
            )
        )
        return self.rounds

    def _check(self, now: float) -> None:
        editor = self.editor.window.surface
        for viewer in self.viewers:
            if not viewer.pending or not viewer.changed():
                continue
            local = viewer.participant.windows.get(self.editor.window_id)
            if local is None or not local.surface.identical_to(editor):
                continue
            while viewer.pending:
                self.ops.complete(now - viewer.pending.popleft())

    def drain(self) -> None:
        stop = self.clock.now() + DELIVERY_DEADLINE + 4 * DT
        while self.clock.now() < stop and any(v.pending for v in self.viewers):
            now = self.clock.now()
            self._round()
            self._check(now)
        for viewer in self.viewers:
            self.ops.fail(len(viewer.pending))
            viewer.pending.clear()
            if not viewer.participant.converged_with(self.ah.windows):
                self.ops.fail()

    def _bytes_sent(self) -> int:
        return self.ah.total_bytes_sent() + sum(
            relay.bytes_forwarded for relay in self.relays
        )

    # -- Results --------------------------------------------------------------

    @property
    def units(self) -> float:
        return len(self.viewers) * (self.t_end - self.t_start)

    def report(self) -> dict:
        units = max(self.units, 1e-9)
        ms = [s * 1e3 for s in self.ops.latencies] or [float("nan")]
        p50, p99 = percentile(ms, 50), percentile(ms, 99)
        ah_s, relay_s, viewer_s = self.tier_s
        cpu = ah_s + relay_s + viewer_s
        wire_kib = (self.bytes1 - self.bytes0) / 1024.0 / units
        return {
            "metrics": {
                "latency_ms_p50": (p50, "ms"),
                "latency_ms_tail": (p99, "ms"),
                "units_per_cpu_s": (units / cpu if cpu else 0.0, "1/s"),
                "wire_kib_per_unit": (wire_kib, "KiB"),
            },
            "named": {
                "relay_cpu_us_per_viewer_s": (relay_s * 1e6 / units, "us"),
                "viewer_cpu_ms_per_s": (viewer_s * 1e3 / units, "ms"),
                "delivery_ms_p50": (p50, "ms"),
                "delivery_ms_p99": (p99, "ms"),
            },
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "samples": len(self.ops.latencies),
            "fingerprint": {
                "wire_bytes": self.bytes1 - self.bytes0,
                "packets": self.ah.total_packets_sent() + sum(
                    relay.packets_forwarded for relay in self.relays
                ),
                "failed": self.ops.failed,
                "latencies": [round(x, 9) for x in self.ops.latencies],
            },
        }


    def close(self) -> None:
        self.ah.close()
