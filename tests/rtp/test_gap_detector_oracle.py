"""Model-based check of :class:`GapDetector` against the old seen-set code.

The hole-set detector must report exactly what the seen-set detector
it replaced reports, after every ``record``/``acknowledge``, for every
window size the stack uses and every shape of arrival: 16-bit
wraparound, reordering, duplicates, late joins, jumps beyond the
window and jumps of exactly half the sequence space.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.rtp.sequence import GapDetector

from .reference_gap_detector import GapDetector as ReferenceGapDetector

HALF = 1 << 15
WINDOWS = (1, 2, 16, 1024)

#: Offsets from the current highest sequence number.  Small ones model
#: in-order delivery, loss, reordering and duplicates (0); the named
#: ones sit on the window and half-range boundaries.
offsets = st.one_of(
    st.integers(-40, 40),
    st.sampled_from([
        HALF, HALF - 1, HALF + 1, -(HALF - 1), -HALF,
        2, 3, 15, 16, 17, -15, -16, -17,
        1023, 1024, 1025, -1023, -1024, -1025, 5000,
    ]),
    st.integers(-(1 << 16), 1 << 16),
)


class GapDetectorOracle(RuleBasedStateMachine):
    """Drives the new and the reference detector with the same inputs."""

    @initialize(
        max_tracked=st.sampled_from(WINDOWS),
        # Starts near the top of the space wrap within a few packets.
        start=st.one_of(st.integers(0xFFC0, 0xFFFF), st.integers(0, 0xFFFF)),
    )
    def setup(self, max_tracked, start):
        self.new = GapDetector(max_tracked=max_tracked)
        self.old = ReferenceGapDetector(max_tracked=max_tracked)
        self.start = start

    def _seq(self, offset):
        base = self.old._highest
        return ((self.start if base is None else base) + offset) % (1 << 16)

    @rule(offset=offsets)
    def record(self, offset):
        seq = self._seq(offset)
        self.new.record(seq)
        self.old.record(seq)

    @rule(offset=offsets)
    def acknowledge(self, offset):
        seq = self._seq(offset)
        self.new.acknowledge(seq)
        self.old.acknowledge(seq)

    @rule(pick=st.integers(0, 1 << 16))
    def acknowledge_a_hole(self, pick):
        """Fill a real hole, as a retransmission or give-up would."""
        holes = self.old.missing()
        if holes:
            seq = holes[pick % len(holes)]
            self.new.acknowledge(seq)
            self.old.acknowledge(seq)

    @invariant()
    def same_missing(self):
        assert self.new.missing() == self.old.missing()


TestGapDetectorOracle = GapDetectorOracle.TestCase
TestGapDetectorOracle.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None
)


@pytest.mark.parametrize("max_tracked", WINDOWS)
def test_random_lossy_traces(max_tracked):
    """Long seeded traces of a lossy, reordering stream across a wrap."""
    JUMPS = (HALF - 1, HALF, HALF + 1, 3 * max_tracked)
    rng = random.Random(max_tracked)
    for _ in range(25):
        new = GapDetector(max_tracked=max_tracked)
        old = ReferenceGapDetector(max_tracked=max_tracked)
        seq = rng.randrange(1 << 16)
        late = []  # delayed or lost packets, delivered out of order
        for _ in range(400):
            roll = rng.random()
            if roll < 0.2 and late:
                arrival = late.pop(rng.randrange(len(late)))
            else:
                seq += rng.choice(JUMPS) if roll > 0.97 else 1
                if rng.random() < 0.2:
                    late.append(seq)
                    continue
                arrival = seq
            new.record(arrival % (1 << 16))
            old.record(arrival % (1 << 16))
            assert new.missing() == old.missing()
