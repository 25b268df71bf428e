"""Per-layer tracing: spans around public calls of each layer.

:class:`Tracer` wraps the functions listed in :data:`TARGETS` for the
length of one traced pass and restores them afterwards; nothing under
``src/`` changes.  Every wrapped call records a span (name, start, end,
enclosing span, request id) on this thread's CPU clock.  Spans stay in
memory and are written out when the pass ends.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: (metric prefix, module, class or None for a module function, attribute)
TARGETS = (
    ("ah.advance", "repro.sharing.ah", "ApplicationHost", "advance"),
    ("ah.process_incoming", "repro.sharing.ah", "ApplicationHost",
     "process_incoming"),
    ("events.inject", "repro.sharing.events", "EventInjector",
     "inject_payload"),
    ("capture.capture", "repro.sharing.capture", "CapturePipeline", "capture"),
    ("surface.scroll_detect", "repro.surface.scroll", "ScrollDetector",
     "detect"),
    ("surface.write_rect", "repro.surface.framebuffer", "Framebuffer",
     "write_rect"),
    ("codecs.select", "repro.codecs.selector", "CodecSelector", "select"),
    ("codecs.cache_key", "repro.codecs.cache", "EncodeCache", "key"),
    ("codecs.png_encode", "repro.codecs.png", "PngCodec", "encode"),
    ("codecs.png_decode", "repro.codecs.png", "PngCodec", "decode"),
    ("codecs.lossy_encode", "repro.codecs.lossy", "LossyDctCodec", "encode"),
    ("codecs.lossy_decode", "repro.codecs.lossy", "LossyDctCodec", "decode"),
    ("core.fragment", "repro.core.fragmentation", None, "fragment_update"),
    ("core.reassemble", "repro.core.fragmentation", "UpdateReassembler",
     "push"),
    ("rtp.packet_encode", "repro.rtp.packet", "RtpPacket", "encode"),
    ("rtp.packet_decode", "repro.rtp.packet", "RtpPacket", "decode"),
    ("rtp.gap_record", "repro.rtp.sequence", "GapDetector", "record"),
    ("rtp.gap_missing", "repro.rtp.sequence", "GapDetector", "missing"),
    ("rtp.jitter_insert", "repro.rtp.jitter_buffer", "JitterBuffer", "insert"),
    ("rtp.jitter_pop", "repro.rtp.jitter_buffer", "JitterBuffer", "pop_ready"),
    ("rtp.rtcp_poll", "repro.rtp.reports", "RtcpReporter", "poll"),
    ("sender.pump", "repro.sharing.sender", "UpdateScheduler", "pump"),
    ("sender.flush", "repro.sharing.sender", "UpdateScheduler", "flush"),
    ("participant.process_incoming", "repro.sharing.participant",
     "Participant", "process_incoming"),
    ("recovery.poll", "repro.sharing.recovery", "RecoveryManager", "poll"),
    ("retransmit.lookup", "repro.sharing.retransmit", "RetransmitCache",
     "lookup_many"),
    ("net.tcp_send", "repro.net.tcp", "TcpConnection", "send_packet"),
    ("net.tcp_receive", "repro.net.tcp", "TcpConnection", "receive_packets"),
    ("net.deframe", "repro.rtp.framing", "StreamDeframer", "feed"),
    ("net.channel_send", "repro.net.channel", "LossyChannel", "send"),
    ("net.channel_receive", "repro.net.channel", "LossyChannel",
     "receive_ready"),
    ("relay.pump", "repro.relay.node", "RelayNode", "pump"),
    ("server.media_round", "repro.sharing.server.core", "SessionCore",
     "media_round"),
    ("obs.observe", "repro.obs.registry", "Histogram", "observe"),
)

#: Wrapped only to count outcomes; reported through a ratio, not a span.
CACHE_GET = ("codecs.cache_get", "repro.codecs.cache", "EncodeCache", "get")

#: Ratios, counts and sizes reported beside the per-call metrics:
#: (name, unit, better).
EXTRA_METRICS = (
    ("surface.scroll_hit_ratio", "ratio", "higher"),
    ("codecs.cache_hit_ratio", "ratio", "higher"),
    ("codecs.png_bytes_per_kpx", "B/kpx", "lower"),
    ("codecs.lossy_bytes_per_kpx", "B/kpx", "lower"),
    ("codecs.lossy_psnr_db", "dB", "higher"),
    ("core.reassembly_drops", "count", "lower"),
    ("sender.idle_pump_ratio", "ratio", "lower"),
    ("sender.queue_depth_max", "count", "lower"),
    ("participant.idle_call_ratio", "ratio", "lower"),
    ("recovery.nacks_per_kpkt", "count", "lower"),
    ("recovery.give_ups", "count", "lower"),
    ("net.tcp_backlog_kib_max", "KiB", "lower"),
    ("relay.nack_absorb_ratio", "ratio", "higher"),
    ("relay.upstream_nacks", "count", "lower"),
    ("server.loop_overhead_ratio", "ratio", "lower"),
    ("obs.retained_samples", "count", "lower"),
    ("trace.spans_per_unit", "1/unit", "lower"),
    ("trace.overhead.latency_ms_p50", "ratio", "lower"),
    ("trace.overhead.latency_ms_tail", "ratio", "lower"),
    ("trace.overhead.cpu_per_unit", "ratio", "lower"),
    ("trace.overhead.wire_kib_per_unit", "ratio", "lower"),
)

#: Spans kept in memory per pass; later calls still count and time.
MAX_SPANS = 3_000_000


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name, *_ in TARGETS:
        out.append((f"{name}.us", "us", "lower"))
        out.append((f"{name}.calls", "1/unit", "lower"))
    out.extend(EXTRA_METRICS)
    return out


class _Counters:
    """Outcome counters the wrapper hooks fill in."""

    def __init__(self) -> None:
        self.scroll_hits = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self.png_bytes = 0
        self.png_px = 0
        self.lossy_bytes = 0
        self.lossy_px = 0
        self.idle_pumps = 0
        self.queue_depth_max = 0
        self.idle_calls = 0
        self.nacked = 0
        self.give_ups = 0
        self.tcp_backlog_max = 0
        self.reassemblers: dict[int, tuple] = {}


class Tracer:
    """Installs span-recording wrappers for one traced pass."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.names = [t[0] for t in TARGETS]
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.incl_ns = [0] * n
        self.counters = _Counters()
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans_dropped = 0
        self._stack: list[int] = []
        self._child: list[int] = []
        self._restore: list[tuple] = []
        self.cpu_ns = 0

    # -- Installation ------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for index, (name, module, owner, attr) in enumerate(TARGETS):
            self._patch(module, owner, attr,
                        lambda fn, i=index, n=name: self._wrap(
                            i, fn, hooks.get(n)))
        self._patch(*CACHE_GET[1:], self._wrap_cache_get)
        self._cpu0 = time.thread_time_ns()

    def uninstall(self) -> None:
        self.cpu_ns = time.thread_time_ns() - self._cpu0
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, owner: str | None, attr: str,
               make) -> None:
        module = importlib.import_module(module_name)
        if owner is None:
            original = getattr(module, attr)
            wrapper = make(original)
            # Callers import the function by name, so replace every
            # binding of it across the program's modules.
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
            return
        cls = getattr(module, owner)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(make(raw.__func__))
        else:
            patched = make(raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, patched)

    def _wrap(self, index: int, fn, hook):
        clock = time.thread_time_ns
        stack, child = self._stack, self._child
        names, parents, requests = (
            self.span_name, self.span_parent, self.span_request
        )
        starts, ends = self.span_start, self.span_end
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        workload = self.workload
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(names)
            if sid < MAX_SPANS:
                names.append(index)
                parents.append(stack[-1] if stack else -1)
                requests.append(workload.request)
                starts.append(0)
                ends.append(0)
            else:
                tracer.spans_dropped += 1
                sid = -1
            stack.append(sid)
            child.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                duration = t1 - t0
                if sid >= 0:
                    starts[sid] = t0
                    ends[sid] = t1
                self_ns[index] += duration - inner
                incl_ns[index] += duration
                calls[index] += 1
                if child:
                    child[-1] += duration
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_cache_get(self, fn):
        counters = self.counters

        def get(self_, key):
            entry = fn(self_, key)
            counters.cache_gets += 1
            if entry is not None:
                counters.cache_hits += 1
            return entry

        return get

    def _hooks(self) -> dict:
        c = self.counters

        def scroll(args, result):
            if result is not None:
                c.scroll_hits += 1

        def png(args, result):
            c.png_bytes += len(result)
            c.png_px += args[1].shape[0] * args[1].shape[1]

        def lossy(args, result):
            c.lossy_bytes += len(result)
            c.lossy_px += args[1].shape[0] * args[1].shape[1]

        def reassemble(args, result):
            reassembler = args[0]
            c.reassemblers.setdefault(
                id(reassembler), (reassembler, reassembler.updates_dropped)
            )

        def pump(args, result):
            if result == 0:
                c.idle_pumps += 1
            c.queue_depth_max = max(c.queue_depth_max, args[0].queue_depth)

        def incoming(args, result):
            if result == 0:
                c.idle_calls += 1

        def recovery(args, result):
            c.nacked += len(result.nack_now)
            c.give_ups += len(result.gave_up)

        def tcp_send(args, result):
            c.tcp_backlog_max = max(c.tcp_backlog_max, args[0].backlog_bytes())

        return {
            "surface.scroll_detect": scroll,
            "codecs.png_encode": png,
            "codecs.lossy_encode": lossy,
            "core.reassemble": reassemble,
            "sender.pump": pump,
            "participant.process_incoming": incoming,
            "recovery.poll": recovery,
            "net.tcp_send": tcp_send,
        }

    # -- Results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as columns; ``parent`` is -1 at the root."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.span_request, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def metrics(self, units: float, relay_before: list[dict],
                relay_after: list[dict], retained_samples: int,
                psnr_db: float) -> dict[str, float]:
        """The per-layer ledger for a pass that covered ``units`` units."""
        units = max(units, 1e-9)
        out: dict[str, float] = {}
        index = {name: i for i, name in enumerate(self.names)}
        for i, name in enumerate(self.names):
            calls = self.calls[i]
            out[f"{name}.us"] = self.self_ns[i] / calls / 1e3 if calls else 0.0
            out[f"{name}.calls"] = calls / units
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out["surface.scroll_hit_ratio"] = ratio(
            c.scroll_hits, self.calls[index["surface.scroll_detect"]]
        )
        out["codecs.cache_hit_ratio"] = ratio(c.cache_hits, c.cache_gets)
        out["codecs.png_bytes_per_kpx"] = ratio(c.png_bytes, c.png_px / 1e3)
        out["codecs.lossy_bytes_per_kpx"] = ratio(
            c.lossy_bytes, c.lossy_px / 1e3
        )
        out["codecs.lossy_psnr_db"] = psnr_db
        out["core.reassembly_drops"] = float(sum(
            r.updates_dropped - first for r, first in c.reassemblers.values()
        ))
        out["sender.idle_pump_ratio"] = ratio(
            c.idle_pumps, self.calls[index["sender.pump"]]
        )
        out["sender.queue_depth_max"] = float(c.queue_depth_max)
        out["participant.idle_call_ratio"] = ratio(
            c.idle_calls, self.calls[index["participant.process_incoming"]]
        )
        out["recovery.nacks_per_kpkt"] = ratio(
            c.nacked, self.calls[index["rtp.packet_decode"]] / 1e3
        )
        out["recovery.give_ups"] = float(c.give_ups)
        out["net.tcp_backlog_kib_max"] = c.tcp_backlog_max / 1024.0

        def relay_delta(key):
            return sum(
                after[key] - before[key]
                for before, after in zip(relay_before, relay_after)
            )

        absorbed = relay_delta("absorbed_nacks")
        out["relay.nack_absorb_ratio"] = ratio(
            absorbed, absorbed + relay_delta("upstream_nacked_seqs")
        )
        out["relay.upstream_nacks"] = float(relay_delta("upstream_nacks"))
        rounds_ns = self.incl_ns[index["server.media_round"]]
        out["server.loop_overhead_ratio"] = (
            1.0 - rounds_ns / self.cpu_ns if rounds_ns and self.cpu_ns else 0.0
        )
        out["obs.retained_samples"] = float(retained_samples)
        out["trace.spans_per_unit"] = sum(self.calls) / units
        return out
