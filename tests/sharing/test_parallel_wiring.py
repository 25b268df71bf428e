"""Pool wiring through the sharing tier: config → host → encoder → span."""

from __future__ import annotations

import asyncio
import os
import threading

import numpy as np
import pytest

from repro.codecs.base import default_registry
from repro.codecs.parallel import EncodePool
from repro.obs import Instrumentation
from repro.rtp.clock import SimulatedClock
from repro.rtp.session import RtpSender
from repro.sharing.ah import ApplicationHost
from repro.sharing.capture import UpdateOp
from repro.sharing.config import PT_REMOTING, SharingConfig
from repro.sharing.encoder import FrameEncoder
from repro.sharing.server import SessionServer
from repro.sharing.transport import PacketTransport


class NullTransport(PacketTransport):
    reliable = False

    def send_packet(self, packet: bytes) -> bool:
        return True

    def receive_packets(self) -> list[bytes]:
        return []


def _photo(seed: int, h: int = 160, w: int = 64) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=(h, w, 4), dtype=np.uint8
    )


def _encoder(pool, obs=None, config=None):
    clock = SimulatedClock()
    sender = RtpSender(PT_REMOTING, now=clock.now)
    return FrameEncoder(
        sender, default_registry(), config or SharingConfig(), clock.now,
        instrumentation=obs, pool=pool,
    )


class TestFrameEncoderPool:
    def test_large_update_routes_through_pool(self):
        obs = Instrumentation()
        with EncodePool(2, obs=obs) as pool:
            encoder = _encoder(pool, obs=obs)
            packets = encoder.encode_update(UpdateOp(1, 0, 0, _photo(1)), 0.0)
            assert packets
            assert obs.registry.total("encode.bands") > 0
            sid = packets[0].update_id
            assert "parallel_encode" in obs.spans.get_open(sid).stages

    def test_small_update_stays_in_process(self):
        obs = Instrumentation()
        with EncodePool(1, obs=obs) as pool:
            encoder = _encoder(pool, obs=obs)
            packets = encoder.encode_update(
                UpdateOp(1, 0, 0, _photo(2, h=16, w=16)), 0.0
            )
            assert packets
            assert obs.registry.total("encode.bands") == 0
            sid = packets[0].update_id
            assert "parallel_encode" not in obs.spans.get_open(sid).stages

    def test_parallel_output_decodes_identically(self):
        pixels = _photo(3)
        with EncodePool(2) as pool:
            with_pool = _encoder(pool)
            without = _encoder(None)
            a = with_pool._encode_pixels(pixels)
            b = without._encode_pixels(pixels)
        assert a[0] == b[0]  # same codec choice
        from repro.codecs.base import default_registry as reg

        codec = reg().by_payload_type(a[0])
        assert np.array_equal(codec.decode(a[1]), codec.decode(b[1]))


class TestApplicationHostPool:
    def test_workers_zero_means_no_pool(self):
        ah = ApplicationHost(320, 240, clock=SimulatedClock().now)
        assert ah.encode_pool is None
        ah.close()  # no-op, must not raise

    def test_host_owns_and_shares_one_pool(self):
        config = SharingConfig(encode_workers=1)
        ah = ApplicationHost(
            320, 240, config=config, clock=SimulatedClock().now
        )
        try:
            assert ah.encode_pool is not None
            s1 = ah.add_participant("p1", NullTransport())
            s2 = ah.add_participant("p2", NullTransport())
            assert s1.scheduler.encoder.pool is ah.encode_pool
            assert s2.scheduler.encoder.pool is ah.encode_pool
        finally:
            ah.close()
        assert ah.encode_pool.closed

    def test_invalid_worker_config_rejected(self):
        with pytest.raises(ValueError):
            SharingConfig(encode_workers=-2)

    def test_close_stops_encode_threads_and_is_idempotent(self):
        def encode_threads():
            return {
                t for t in threading.enumerate()
                if t.name.startswith("encode") and t.is_alive()
            }

        before = encode_threads()
        ah = ApplicationHost(
            320, 240, config=SharingConfig(encode_workers=2),
            clock=SimulatedClock().now,
        )
        session = ah.add_participant("p1", NullTransport())
        assert session.scheduler.encoder.encode_update(
            UpdateOp(1, 0, 0, _photo(4)), 0.0
        )
        assert encode_threads() - before
        ah.close()
        ah.close()
        assert ah.encode_pool.closed
        assert not encode_threads() - before

    def test_minus_one_sizes_threads_to_the_machine(self):
        ah = ApplicationHost(
            320, 240, config=SharingConfig(encode_workers=-1),
            clock=SimulatedClock().now,
        )
        try:
            assert ah.encode_pool.workers == (os.cpu_count() or 1)
        finally:
            ah.close()


class TestHostedSessionPool:
    def test_session_close_tears_down_pool(self):
        async def scenario():
            async with SessionServer() as server:
                code = server.host(
                    screen_width=320, screen_height=240,
                    config=SharingConfig(
                        adaptive_codec=False, encode_workers=1
                    ),
                )
                session = server.session(code)
                pool = session.ah.encode_pool
                assert pool is not None and not pool.closed
                session.close(reason="test")
                assert pool.closed

        asyncio.run(scenario())
