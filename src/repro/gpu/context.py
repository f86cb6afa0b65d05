"""CUDA contexts.

A context is the GPU analogue of a process (paper §2.1): it owns
streams, loaded modules, and memory allocations, and the hardware
isolates *different* contexts from each other. Spatial sharing needs
all tenants inside **one** context — which is exactly what removes the
hardware's isolation and motivates Guardian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gpu.stream import Stream

_CONTEXT_IDS = itertools.count(1)


@dataclass
class Context:
    """One GPU context."""

    name: str
    context_id: int = field(default_factory=_CONTEXT_IDS.__next__)
    streams: list[Stream] = field(default_factory=list)
    #: Addresses allocated through this context (so destroying the
    #: context can release them, as the driver does).
    allocations: set[int] = field(default_factory=set)
    default_stream: Stream = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.default_stream is None:
            self.default_stream = self.create_stream()

    def create_stream(self) -> Stream:
        stream = Stream(context_id=self.context_id)
        self.streams.append(stream)
        return stream

    def destroy_stream(self, stream: Stream) -> None:
        """Forget a stream (cuStreamDestroy). The default stream is
        owned by the context and cannot be destroyed.

        Destroying a stream is the one way to clear a sticky
        asynchronous fault — the wedged FIFO's state dies with it,
        which is exactly what quarantine relies on.
        """
        if stream is self.default_stream:
            raise ValueError(
                f"context {self.name!r}: the default stream cannot be "
                f"destroyed"
            )
        stream.fault = None
        if stream in self.streams:
            self.streams.remove(stream)
