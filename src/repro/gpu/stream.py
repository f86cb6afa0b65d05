"""CUDA streams.

A stream is a FIFO of device operations. Operations within one stream
execute in submission order; operations in different streams of the
same context may overlap — the property Guardian's server exploits to
run different tenants' kernels concurrently (paper §4.2.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_STREAM_IDS = itertools.count(1)


@dataclass
class Stream:
    """One command stream, belonging to a context."""

    context_id: int
    stream_id: int = field(default_factory=_STREAM_IDS.__next__)
    #: Sticky asynchronous fault, modelled after CUDA's sticky context
    #: errors: ``None`` while healthy; once set, the fault surfaces at
    #: every subsequent ordering point (launch, synchronize) until the
    #: stream is destroyed. Set by fault injection or by the device.
    fault: str | None = None
    #: Lifetime submission count (never reset by a sync) and the
    #: device-clock release instant of the latest submission — the
    #: lane-occupancy metrics read these to see how far each tenant's
    #: stream ran without having to replay the timeline.
    submitted: int = 0
    last_release: float = 0.0
    #: The (context, stream) pair used by the timeline simulator.
    key: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = (self.context_id, self.stream_id)

    def note_submit(self, release_cycles: float) -> None:
        """Record one submission and its host release instant.

        Releases are monotone per stream (per-tenant in Guardian), so
        ``last_release`` only ever moves forward even if the caller
        hands in a stale instant.
        """
        self.submitted += 1
        if release_cycles > self.last_release:
            self.last_release = release_cycles

    @property
    def wedged(self) -> bool:
        """A faulted stream accepts no further work."""
        return self.fault is not None
