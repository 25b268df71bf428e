"""desktop-media: one AH shares a 1024x768 desktop over a loopback socket.

Closed loop.  Each frame the photo viewer shows a photo never shown
before, the animation renders one frame, and the viewer types one key
into the editor through HIP.  The next frame is issued only after the
viewer has applied every packet of the previous one.  Protocol timers
run on a simulated clock that advances one frame interval per frame,
so packet counts repeat exactly; the socket carries real bytes.
"""

from __future__ import annotations

import random
import time

from repro.apps import AnimationApp, PhotoViewerApp
from repro.net.tcp import TcpListener, connect
from repro.rtp.clock import SimulatedClock
from repro.sharing import ApplicationHost, Participant, TcpSocketTransport
from repro.surface import Rect

from common import (
    CpuTimer, Ops, RecordingEditor, SpeedProbe, Workload, keystrokes,
    percentile, psnr_db,
)

SCREEN = (1024, 768)
PHOTO_RECT = Rect(24, 24, 480, 360)
ANIMATION_RECT = Rect(528, 24, 320, 240)
EDITOR_RECT = Rect(528, 288, 472, 456)
FRAME_DT = 0.1  # virtual seconds per frame; the animation runs at 10 fps
FRAME_DEADLINE_S = 10.0  # wall seconds a frame may take before it fails
FRAME_PROBES = 2  # reference-task samples between two frames
PSNR_FLOOR_DB = 30.0


class CountingConnection:
    """A :class:`repro.net.tcp.TcpConnection` that counts framed bytes sent."""

    def __init__(self, connection) -> None:
        self.connection = connection
        self.bytes_sent = 0

    def send_packet(self, packet: bytes) -> None:
        self.bytes_sent += len(packet) + 2  # RFC 4571 length prefix
        self.connection.send_packet(packet)

    def receive_packets(self) -> list[bytes]:
        return self.connection.receive_packets()

    def backlog_bytes(self) -> int:
        return self.connection.backlog_bytes()

    @property
    def closed(self) -> bool:
        return self.connection.closed

    def close(self) -> None:
        self.connection.close()


def _socket_pair() -> tuple:
    """(AH side, viewer side, listener) of one loopback TCP connection."""
    listener = TcpListener(port=0)
    viewer_side = connect(*listener.address)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        accepted = listener.accept_ready()
        if accepted:
            return accepted[0], viewer_side, listener
        time.sleep(0.001)
    viewer_side.close()
    listener.close()
    raise RuntimeError("loopback accept timed out")


class DesktopMedia(Workload):
    name = "desktop-media"
    unit = "frame"
    work_per_second = 2.0
    setup_repeats = 2

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.album_seed = rng.randrange(1 << 24)
        self.animation_seed = rng.randrange(1 << 16)
        self.participant_seed = rng.randrange(1 << 30)
        self.keys = keystrokes(random.Random(rng.randrange(1 << 30)))
        self.ops = Ops(deadline=FRAME_DEADLINE_S)
        self.frame_cpu = CpuTimer()
        self.probe = SpeedProbe()
        self.psnrs: list[float] = []
        self.scaled_ms: list[float] = []  # frame latencies at reference speed
        self.frames = 0
        self.typed: list[str] = []

    # -- Set-up ---------------------------------------------------------------

    def setup(self) -> None:
        ah_conn, viewer_conn, self.listener = _socket_pair()
        self.ah_conn = CountingConnection(ah_conn)
        self.viewer_conn = CountingConnection(viewer_conn)
        self.clock = SimulatedClock()
        self.ah = ApplicationHost(
            screen_width=SCREEN[0], screen_height=SCREEN[1],
            clock=self.clock, rng=random.Random(self.participant_seed + 1),
        )
        windows = self.ah.windows
        self.photo_win = windows.create_window(PHOTO_RECT, title="photos")
        self.anim_win = windows.create_window(
            ANIMATION_RECT, title="animation"
        )
        self.editor_win = windows.create_window(EDITOR_RECT, title="notes")
        self.photos = PhotoViewerApp(
            self.photo_win, album_seed=self.album_seed
        )
        self.animation = AnimationApp(
            self.anim_win, fps=1.0 / FRAME_DT, balls=4,
            seed=self.animation_seed,
        )
        self.editor = RecordingEditor(self.editor_win)
        for app in (self.photos, self.animation, self.editor):
            self.ah.apps.attach(app)
        self.session = self.ah.add_participant(
            "viewer", TcpSocketTransport(self.ah_conn)
        )
        self.participant = Participant(
            "viewer", TcpSocketTransport(self.viewer_conn),
            clock=self.clock, config=self.ah.config,
            screen_width=SCREEN[0], screen_height=SCREEN[1],
            rng=random.Random(self.participant_seed),
        )
        self.participant.join()
        deadline = time.perf_counter() + FRAME_DEADLINE_S
        while not (self._all_applied() and len(self.participant.windows) == 3):
            if time.perf_counter() > deadline:
                raise RuntimeError("initial desktop sync did not complete")
            self.ah.advance(0)
            self.participant.process_incoming()
            self.probe.tick()

    def _all_applied(self) -> bool:
        scheduler = self.session.scheduler
        return (
            scheduler.queue_depth == 0
            and not scheduler.has_pending
            and self.ah_conn.backlog_bytes() == 0
            and self.participant.receiver.packets_received
            == scheduler.packets_sent
        )

    # -- Measurement ----------------------------------------------------------

    def measure(self, units: int, wall_cap: float) -> int:
        self.wire0 = self._wire_bytes()
        self.packets0 = self._packets()
        end = time.perf_counter() + wall_cap
        # The machine's speed swings within seconds, so each frame's
        # latency is rescaled by the probe samples on either side of it.
        before = self.probe.sample(FRAME_PROBES)
        while self.frames < units and time.perf_counter() < end:
            timed = len(self.ops.latencies)
            running = self._frame()
            after = self.probe.sample(FRAME_PROBES)
            if len(self.ops.latencies) > timed:
                speed = 2 * SpeedProbe.NOMINAL_NS / (before + after)
                self.scaled_ms.append(self.ops.latencies[-1] * 1e3 * speed)
            before = after
            if not running:
                break
        self.wire1 = self._wire_bytes()
        self.packets1 = self._packets()
        return self.frames

    def _frame(self) -> bool:
        """Issue, time and check one frame; False stops the run."""
        self.request = self.frames
        key = next(self.keys)
        self.typed.append(key)
        self.participant.type_text(self.editor_win.window_id, key)
        self.photos.next_photo()
        self.animation.tick(FRAME_DT)
        self.clock.advance(FRAME_DT)
        self.ops.attempted += 1
        self.frames += 1

        t0 = time.perf_counter()
        deadline = t0 + FRAME_DEADLINE_S
        with self.frame_cpu:
            # Inject the key before capturing, so one capture holds all
            # three windows' damage whatever the socket timing.
            while len(self.editor.received) < len(self.typed):
                if time.perf_counter() > deadline:
                    break
                self.ah.process_incoming()
            while True:
                self.ah.advance(0)
                self.participant.process_incoming()
                if self._all_applied() or time.perf_counter() > deadline:
                    break
        elapsed = time.perf_counter() - t0
        if elapsed > FRAME_DEADLINE_S:
            self.ops.fail()
            return False
        if not self._frame_correct():
            self.ops.fail()
            return True
        self.ops.complete(elapsed)
        return True

    def _frame_correct(self) -> bool:
        if self.editor.received != self.typed:
            return False
        if not self.participant.window_matches(
            self.editor_win.window_id, self.editor_win.surface
        ):
            return False
        for window in (self.photo_win, self.anim_win):
            local = self.participant.windows.get(window.window_id)
            if local is None:
                return False
            quality = psnr_db(window.surface.array, local.surface.array)
            if quality < PSNR_FLOOR_DB:
                return False
            if quality != float("inf"):
                self.psnrs.append(quality)
        return True

    def _wire_bytes(self) -> int:
        return self.ah_conn.bytes_sent + self.viewer_conn.bytes_sent

    def _packets(self) -> int:
        return (
            self.ah_conn.connection.packets_sent
            + self.viewer_conn.connection.packets_sent
        )

    def drain(self) -> None:
        """Frames complete inside the closed loop; nothing is left over."""

    # -- Results --------------------------------------------------------------

    @property
    def units(self) -> float:
        return float(self.frames)

    def report(self) -> dict:
        frames = max(self.frames, 1)
        ms = [s * 1e3 for s in self.ops.latencies] or [float("nan")]
        wire_kib = (self.wire1 - self.wire0) / 1024.0 / frames
        cpu = self.frame_cpu.seconds
        psnr = (
            sum(self.psnrs) / len(self.psnrs) if self.psnrs else float("nan")
        )
        p50, p90 = percentile(ms, 50), percentile(ms, 90)
        scaled = self.scaled_ms or [float("nan")]
        return {
            "metrics": {
                "latency_ms_p50": (percentile(scaled, 50), "ms"),
                "latency_ms_tail": (percentile(scaled, 90), "ms"),
                "units_per_cpu_s": (self.frames / cpu if cpu else 0.0, "1/s"),
                "wire_kib_per_unit": (wire_kib, "KiB"),
            },
            "named": {
                "frame_ms_p50": (p50, "ms"),
                "frame_ms_p90": (p90, "ms"),
                "wire_kib_per_frame": (wire_kib, "KiB"),
                "psnr_db": (psnr, "dB"),
            },
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "samples": len(self.ops.latencies),
            "fingerprint": {
                "wire_bytes": self.wire1 - self.wire0,
                "packets": self.packets1 - self.packets0,
                "failed": self.ops.failed,
                "frames": self.frames,
            },
        }


    def close(self) -> None:
        self.ah_conn.close()
        self.viewer_conn.close()
        self.listener.close()
        self.ah.close()
