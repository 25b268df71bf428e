"""Causal span tracing for RegionUpdates (damage → apply, end to end).

Every scheduled RegionUpdate gets an ``update_id`` when the frame
encoder first sees it; the id is never put on the wire.  Instead the
update is identified by the **extended RTP sequence range** its
fragments occupy — the one piece of identity both sides of the session
already share — so the participant-side receive, reassembly, decode and
apply stages join the same trace without any protocol change.

A span is a set of per-stage ``[start, end]`` intervals measured
against the session clock:

    schedule → encode → fragment → send → (network) → receive
             → reassemble → decode → apply

``network`` is derived at completion (last ``send`` to first
``receive``); every other stage is marked in place by the component
that owns it.  Completed spans roll up into the
``update.stage_seconds{stage=...}`` histograms and one end-to-end
``update.e2e_seconds{recovered=yes|no}`` histogram — ``recovered=yes``
when any fragment arrived via a NACK retransmission, so the happy path
and the loss-recovery path are separately measurable.

Spans that can never complete (NACK retries exhausted, undecodable
payload, open-span cap reached) are abandoned and counted by reason
(``spans.abandoned{reason=...}``).  Recent finished spans stay in a
bounded deque for the Chrome-trace exporter
(:func:`repro.obs.export.chrome_trace`).

The shared :data:`NULL_SPANS` tracker is the off-switch: with
:data:`repro.obs.NULL` instrumentation, ``begin`` returns ``None``,
``resolve`` returns ``None``, and every call-site guard of the form
``if span_id is not None`` keeps the hot path allocation-free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..rtp.sequence import SequenceExtender

#: Canonical stage order (the waterfall row order).  ``relay`` sits
#: inside the network hop: each relay that forwards a fragment widens
#: the interval, so a 2-level tree's relay stage spans first-hop
#: forward to last-hop forward.
STAGES = (
    "schedule",
    "encode",
    "parallel_encode",
    "fragment",
    "send",
    "network",
    "relay",
    "failover",
    "receive",
    "reassemble",
    "decode",
    "apply",
)

#: Stages only present on some topologies: a direct AH→participant
#: session has no ``relay`` hop, ``failover`` appears only on the
#: first update a re-parented relay forwards after its parent died,
#: and ``parallel_encode`` marks only updates the band pool encoded
#: — so completeness checks must not demand these.
OPTIONAL_STAGES = ("relay", "failover", "parallel_encode")

#: Why a span was abandoned, for the ``spans.abandoned`` counter family.
ABANDON_REASONS = (
    "give_up", "no_window", "codec_unsupported", "codec_error", "evicted",
)


@dataclass(slots=True)
class UpdateSpan:
    """One update's causal trace: stage intervals plus identity."""

    update_id: int
    attrs: dict
    #: stage → [start, end] against the session clock.
    stages: dict[str, list[float]] = field(default_factory=dict)
    #: (ssrc, extended seq) keys this span holds in the tracker index.
    seq_keys: list[tuple[int, int]] = field(default_factory=list)
    rtp_timestamp: int | None = None
    recovered: bool = False
    outcome: str = "open"  # open | complete | abandoned:<reason>

    def duration(self, stage: str) -> float | None:
        interval = self.stages.get(stage)
        return None if interval is None else interval[1] - interval[0]

    @property
    def start(self) -> float | None:
        if not self.stages:
            return None
        return min(interval[0] for interval in self.stages.values())

    @property
    def end(self) -> float | None:
        if not self.stages:
            return None
        return max(interval[1] for interval in self.stages.values())

    def e2e_seconds(self) -> float | None:
        if not self.stages:
            return None
        return self.end - self.start

    def to_row(self) -> dict:
        """Flat JSON-serialisable summary (flight dumps, reports)."""
        return {
            "update_id": self.update_id,
            "outcome": self.outcome,
            "recovered": self.recovered,
            "rtp_timestamp": self.rtp_timestamp,
            "stages": {
                stage: {"start": t0, "end": t1}
                for stage, (t0, t1) in self.stages.items()
            },
            **self.attrs,
        }


class _StreamIndex:
    """Per-SSRC extended-sequence index: ext seq → update_id."""

    __slots__ = ("extender", "by_ext")

    def __init__(self) -> None:
        self.extender = SequenceExtender()
        self.by_ext: dict[int, int] = {}


class SpanTracker:
    """Allocates update ids, joins both sides, rolls up histograms."""

    enabled = True

    def __init__(
        self,
        instrumentation,
        max_open: int = 1024,
        max_completed: int = 4096,
    ) -> None:
        if max_open < 1 or max_completed < 1:
            raise ValueError("span capacities must be positive")
        self._ins = instrumentation
        self.max_open = max_open
        self._next_id = 1
        self._open: dict[int, UpdateSpan] = {}
        #: Finished spans (complete and abandoned), oldest evicted first.
        self.completed: deque[UpdateSpan] = deque(maxlen=max_completed)
        self._streams: dict[int, _StreamIndex] = {}
        self._c_started = instrumentation.counter("spans.started")
        self._c_completed = {
            label: instrumentation.counter("spans.completed", recovered=label)
            for label in ("yes", "no")
        }
        self._c_abandoned = {
            reason: instrumentation.counter("spans.abandoned", reason=reason)
            for reason in ABANDON_REASONS
        }
        self._h_stage = {
            stage: instrumentation.histogram(
                "update.stage_seconds", stage=stage
            )
            for stage in STAGES
        }
        self._h_e2e = {
            label: instrumentation.histogram(
                "update.e2e_seconds", recovered=label
            )
            for label in ("yes", "no")
        }

    # -- Lifecycle ---------------------------------------------------------

    def begin(self, **attrs) -> int:
        """Open a span for one scheduled update; returns its id."""
        while len(self._open) >= self.max_open:
            oldest = next(iter(self._open))
            self.abandon(oldest, "evicted")
        update_id = self._next_id
        self._next_id += 1
        self._open[update_id] = UpdateSpan(update_id, attrs)
        self._c_started.inc()
        return update_id

    def mark(
        self,
        span_id: int | None,
        stage: str,
        start: float | None = None,
        end: float | None = None,
    ) -> None:
        """Extend ``stage``'s interval; missing bounds default to now.

        Repeated marks widen the interval (min start, max end), so a
        stage touched once per fragment — send, receive, reassemble —
        naturally spans first fragment to last.
        """
        if span_id is None:
            return
        span = self._open.get(span_id)
        if span is None:
            return
        now = self._ins.now()
        t0 = start if start is not None else now
        t1 = end if end is not None else now
        interval = span.stages.get(stage)
        if interval is None:
            span.stages[stage] = [t0, t1]
        else:
            if t0 < interval[0]:
                interval[0] = t0
            if t1 > interval[1]:
                interval[1] = t1

    def bind_range(
        self,
        span_id: int | None,
        ssrc: int,
        first_seq: int,
        count: int,
        rtp_timestamp: int | None = None,
    ) -> None:
        """Claim the ``count`` sequence numbers starting at ``first_seq``.

        This is the wire identity: the receive side resolves arriving
        packets back to the span through this index.
        """
        if span_id is None:
            return
        span = self._open.get(span_id)
        if span is None:
            return
        span.rtp_timestamp = rtp_timestamp
        index = self._streams.get(ssrc)
        if index is None:
            index = self._streams[ssrc] = _StreamIndex()
        for i in range(count):
            ext = index.extender.extend((first_seq + i) & 0xFFFF)
            index.by_ext[ext] = span_id
            span.seq_keys.append((ssrc, ext))

    def resolve(self, ssrc: int, seq: int) -> int | None:
        """The open span owning ``seq`` on stream ``ssrc``, if any."""
        index = self._streams.get(ssrc)
        if index is None:
            return None
        return index.by_ext.get(index.extender.extend(seq))

    def recovered(self, span_id: int | None) -> None:
        """Flag that a fragment arrived via NACK retransmission."""
        if span_id is None:
            return
        span = self._open.get(span_id)
        if span is not None:
            span.recovered = True

    def complete(self, span_id: int | None) -> None:
        """Close the span: derive ``network``, feed the histograms."""
        span = self._finish(span_id)
        if span is None:
            return
        send = span.stages.get("send")
        receive = span.stages.get("receive")
        if send is not None and receive is not None:
            span.stages["network"] = [
                send[1], max(receive[0], send[1])
            ]
        span.outcome = "complete"
        label = "yes" if span.recovered else "no"
        self._c_completed[label].inc()
        for stage, (t0, t1) in span.stages.items():
            histogram = self._h_stage.get(stage)
            if histogram is not None:
                histogram.observe(t1 - t0)
        e2e = span.e2e_seconds()
        if e2e is not None:
            self._h_e2e[label].observe(e2e)
        self.completed.append(span)

    def abandon(self, span_id: int | None, reason: str) -> None:
        """Close the span without an apply; counted by ``reason``."""
        span = self._finish(span_id)
        if span is None:
            return
        span.outcome = f"abandoned:{reason}"
        counter = self._c_abandoned.get(reason)
        if counter is None:
            counter = self._ins.counter("spans.abandoned", reason=reason)
            self._c_abandoned[reason] = counter
        counter.inc()
        self.completed.append(span)

    def _finish(self, span_id: int | None) -> UpdateSpan | None:
        if span_id is None:
            return None
        span = self._open.pop(span_id, None)
        if span is None:
            return None
        for ssrc, ext in span.seq_keys:
            index = self._streams.get(ssrc)
            if index is not None:
                index.by_ext.pop(ext, None)
        return span

    # -- Introspection -----------------------------------------------------

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def get_open(self, span_id: int) -> UpdateSpan | None:
        return self._open.get(span_id)


class NullSpanTracker:
    """The off-switch: same verbs, no state, ``None`` identities."""

    enabled = False
    max_open = 0
    completed: tuple = ()
    open_spans = 0

    def begin(self, **attrs) -> None:
        return None

    def mark(self, span_id, stage, start=None, end=None) -> None:
        pass

    def bind_range(self, span_id, ssrc, first_seq, count,
                   rtp_timestamp=None) -> None:
        pass

    def resolve(self, ssrc, seq) -> None:
        return None

    def recovered(self, span_id) -> None:
        pass

    def complete(self, span_id) -> None:
        pass

    def abandon(self, span_id, reason) -> None:
        pass

    def get_open(self, span_id) -> None:
        return None


#: The shared no-op tracker :data:`repro.obs.NULL` hands out.
NULL_SPANS = NullSpanTracker()
