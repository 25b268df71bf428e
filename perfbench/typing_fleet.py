"""typing-fleet: many small typed-into sessions on one asyncio server.

Open loop on the server's virtual clock.  One :class:`SessionServer`
with its metrics registry on hosts ``SESSIONS`` small sessions (an
editor and a terminal each), each joined over SIP by one viewer; even
sessions negotiate simulated TCP, odd ones lossless simulated UDP.
Every viewer types one character every 0.2 virtual s (give or take
20%) and every
terminal prints a line every 0.5 virtual s, each session at its own
seeded phase.  A keystroke is timed from when it was due until the
viewer's editor is pixel-exact with the AH's, after the AH applied it.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque

from repro.apps import TerminalApp
from repro.obs import Instrumentation
from repro.obs.registry import Histogram
from repro.sharing import SharingConfig
from repro.sharing.server import SessionServer
from repro.surface import Rect

from common import (
    CpuTimer, Ops, RecordingEditor, SpeedProbe, Workload, fill_terminal,
    jittered, keystrokes, percentile,
)

SESSIONS = 40
SCREEN = (320, 200)
EDITOR_RECT = Rect(4, 4, 184, 192)
TERMINAL_RECT = Rect(192, 4, 124, 192)
TICK = 0.02  # virtual seconds per server scheduling round
KEY_EVERY = 0.2
LINE_EVERY = 0.5
ECHO_DEADLINE = 1.0  # virtual seconds
SETUP_TIMEOUT = 60.0


class _Session:
    """Driver-side state of one hosted session and its viewer."""

    __slots__ = (
        "editor", "terminal", "participant", "keys", "gaps", "typed",
        "next_key", "next_line", "pending", "seen", "key_phase",
        "line_phase", "line_no",
    )

    def __init__(self, editor, terminal, rng: random.Random) -> None:
        self.editor = editor
        self.terminal = terminal
        self.participant = None
        self.keys = keystrokes(random.Random(rng.randrange(1 << 30)))
        self.gaps = random.Random(rng.randrange(1 << 30))
        self.key_phase = rng.uniform(0.0, KEY_EVERY)
        self.line_phase = rng.uniform(0.0, LINE_EVERY)
        self.typed = []
        self.pending: deque = deque()  # (key index, due time)
        self.seen = (-1, -1)
        self.next_key = 0.0
        self.next_line = 0.0
        self.line_no = 0

    def changed(self) -> bool:
        """Whether the AH or the viewer moved since the last look."""
        state = (
            len(self.editor.received),
            self.participant.updates_applied + self.participant.moves_applied,
        )
        if state == self.seen:
            return False
        self.seen = state
        return True

    def echoed(self) -> bool:
        local = self.participant.windows.get(self.editor.window_id)
        return local is not None and local.surface.identical_to(
            self.editor.window.surface
        )


class TypingFleet(Workload):
    name = "typing-fleet"
    unit = "session-s"
    work_per_second = 15

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops = Ops(deadline=ECHO_DEADLINE)
        self.check_cpu = CpuTimer()
        self.probe = SpeedProbe()
        self.loop = asyncio.new_event_loop()

    # -- Set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        rng = random.Random(self.seed)
        self.obs = Instrumentation()
        self.server = SessionServer(
            tick=TICK, obs=self.obs, rng=random.Random(rng.randrange(1 << 30))
        )
        await self.server.start()
        self.sessions: list[_Session] = []
        self.codes: list[str] = []
        for _ in range(SESSIONS):
            code = self.server.host(
                screen_width=SCREEN[0], screen_height=SCREEN[1],
                config=SharingConfig(),
            )
            ah = self.server.session(code).ah
            editor = RecordingEditor(ah.windows.create_window(EDITOR_RECT))
            terminal = TerminalApp(ah.windows.create_window(TERMINAL_RECT))
            ah.apps.attach(editor)
            ah.apps.attach(terminal)
            session = _Session(editor, terminal, rng)
            fill_terminal(terminal)
            self.codes.append(code)
            self.sessions.append(session)
            self.probe.tick()
        joins = [
            asyncio.ensure_future(self.server.join(
                code, "viewer", timeout=SETUP_TIMEOUT,
                prefer_transport="tcp" if i % 2 == 0 else "udp",
            ))
            for i, code in enumerate(self.codes)
        ]
        await self.server.until(
            lambda: self._joined(joins), timeout=SETUP_TIMEOUT
        )
        for session, join in zip(self.sessions, joins):
            session.participant = join.result().participant
        await self.server.until(self._converged, timeout=SETUP_TIMEOUT)

    def _joined(self, joins) -> bool:
        self.probe.tick()
        return all(join.done() for join in joins)

    def _converged(self) -> bool:
        self.probe.tick()
        return all(
            s.participant.converged_with(self.server.session(code).ah.windows)
            for s, code in zip(self.sessions, self.codes)
        )

    # -- Measurement ----------------------------------------------------------

    def measure(self, units: int, wall_cap: float) -> int:
        self.loop.run_until_complete(self._measure(units, wall_cap))
        return self.rounds

    async def _measure(self, units: int, wall_cap: float) -> None:
        clock = self.server.clock
        self.t_start = clock.now()
        for s in self.sessions:
            s.next_key = self.t_start + s.key_phase
            s.next_line = self.t_start + s.line_phase
        self.bytes0 = self._bytes_sent()
        cpu0 = time.process_time()
        check0 = self.check_cpu.total_ns + self.probe.cpu_ns
        end = time.perf_counter() + wall_cap
        rounds = 0
        while rounds < units and time.perf_counter() < end:
            self.request = rounds
            now = clock.now()
            for s in self.sessions:
                self._issue(s, now)
            self._check(now)
            rounds += 1
            self.probe.tick()
            await asyncio.sleep(0)
        self.t_end = clock.now()
        self.rounds = rounds
        self.bytes1 = self._bytes_sent()
        self.cpu_s = (
            time.process_time() - cpu0
            - (self.check_cpu.total_ns + self.probe.cpu_ns - check0) / 1e9
        )

    def _issue(self, s: _Session, now: float) -> None:
        while s.next_key <= now:
            key = next(s.keys)
            s.pending.append((len(s.typed), s.next_key))
            s.typed.append(key)
            s.participant.type_text(s.editor.window_id, key)
            self.ops.attempted += 1
            s.next_key += jittered(s.gaps, KEY_EVERY)
        while s.next_line <= now:
            s.terminal.append_line(f"[{s.line_no:05d}] job step ok")
            s.line_no += 1
            s.next_line += LINE_EVERY

    def _check(self, now: float) -> None:
        with self.check_cpu:
            for s in self.sessions:
                if not s.pending or not s.changed() or not s.echoed():
                    continue
                applied = len(s.editor.received)
                while s.pending and s.pending[0][0] < applied:
                    _index, due = s.pending.popleft()
                    self.ops.complete(now - due)

    def drain(self) -> None:
        self.loop.run_until_complete(self._drain())

    async def _drain(self) -> None:
        clock = self.server.clock
        stop = clock.now() + ECHO_DEADLINE + 4 * TICK
        while clock.now() < stop and any(s.pending for s in self.sessions):
            self._check(clock.now())
            await asyncio.sleep(0)
        for s in self.sessions:
            self.ops.fail(len(s.pending))
            s.pending.clear()
            if s.editor.received != s.typed:
                self.ops.fail()

    def _bytes_sent(self) -> int:
        return sum(
            self.server.session(code).ah.total_bytes_sent()
            for code in self.codes
        )

    # -- Results --------------------------------------------------------------

    @property
    def units(self) -> float:
        return SESSIONS * (self.t_end - self.t_start)

    def report(self) -> dict:
        units = max(self.units, 1e-9)
        ms = [s * 1e3 for s in self.ops.latencies] or [float("nan")]
        p50, p99 = percentile(ms, 50), percentile(ms, 99)
        wire_kib = (self.bytes1 - self.bytes0) / 1024.0 / units
        throughput = units / self.cpu_s if self.cpu_s > 0 else 0.0
        return {
            "metrics": {
                "latency_ms_p50": (p50, "ms"),
                "latency_ms_tail": (p99, "ms"),
                "units_per_cpu_s": (throughput, "1/s"),
                "wire_kib_per_unit": (wire_kib, "KiB"),
            },
            "named": {
                "session_s_per_cpu_s": (throughput, "session-s/CPU-s"),
                "echo_ms_p50": (p50, "ms"),
                "echo_ms_p99": (p99, "ms"),
                "wire_kib_per_session_s": (wire_kib, "KiB"),
            },
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "samples": len(self.ops.latencies),
            "fingerprint": {
                "wire_bytes": self.bytes1 - self.bytes0,
                "packets": sum(
                    self.server.session(c).ah.total_packets_sent()
                    for c in self.codes
                ),
                "failed": self.ops.failed,
                "latencies": [round(x, 9) for x in self.ops.latencies],
            },
        }


    def retained_samples(self) -> int:
        return sum(
            m.count for m in self.obs.registry if isinstance(m, Histogram)
        )

    def close(self) -> None:
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()
