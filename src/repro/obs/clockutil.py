"""Clock normalisation: one time-injection convention for the stack.

Every component accepts a ``clock`` that may be

* a Clock-like object exposing ``now() -> float`` (e.g.
  :class:`~repro.rtp.clock.SimulatedClock`), or
* a bare ``() -> float`` callable (e.g. ``time.monotonic``).

:func:`as_now` turns either into the ``now()`` callable the component
keeps.
"""

from __future__ import annotations

from typing import Callable

Now = Callable[[], float]


def as_now(
    clock, default: Now | None = None, owner: str | None = None
) -> Now:
    """Normalise a Clock-like or callable into a ``now()`` callable.

    ``default`` supplies the fallback when ``clock`` is None; without
    one the clock is mandatory and ``owner`` names the component in
    the error.
    """
    if clock is None:
        if default is None:
            raise TypeError(f"{owner or 'this component'} requires a clock")
        return default
    now = getattr(clock, "now", None)
    if callable(now):
        return now
    if callable(clock):
        return clock
    raise TypeError(
        "expected a Clock-like (with .now()) or a () -> float callable, "
        f"got {type(clock).__name__}"
    )
