"""Bounds-enforcement policy: the paper's §4.4 trade-off space.

:class:`FencingMode` names which sandboxing scheme the patcher and the
server apply. It is the one policy choice a deployment makes; lane
arbitration, defragmentation and autoscaling each have a single rule,
written where it is used (``GuardianServer._charge``,
:func:`repro.core.elastic.should_defrag`,
:func:`repro.loadgen.driver.p99_breach_capacity`).

Guardian supports three bounds schemes, selectable at run time:

=============  =========  =============  ==========================
mode           ~cycles    partition      semantics on violation
               per ld/st  size
=============  =========  =============  ==========================
BITWISE        8          power of two   wrap into own partition
MODULO         ~38        arbitrary      wrap into own partition
CHECKING       80         arbitrary      detect; return from kernel
=============  =========  =============  ==========================

plus ``NONE`` — interception/forwarding without any checks (the
"G-Safe without protection" configuration used to isolate overheads).

Each mode needs different extra kernel parameters; the server fetches
them from the partition bounds table at every launch (§4.2.3).
"""

from __future__ import annotations

import enum


class FencingMode(enum.Enum):
    """Which bounds-enforcement scheme the patcher/server applies."""

    NONE = "none"
    BITWISE = "bitwise"
    MODULO = "modulo"
    CHECKING = "checking"

    @property
    def extra_params(self) -> tuple[str, ...]:
        """The extra kernel parameters this mode appends (in order)."""
        return _EXTRA_PARAMS[self]

    @property
    def requires_power_of_two(self) -> bool:
        return self is FencingMode.BITWISE

    @property
    def detects_violations(self) -> bool:
        """Only address *checking* can report an out-of-bounds access;
        fencing silently contains it (paper: checking is the debug
        mode, fencing the production mode)."""
        return self is FencingMode.CHECKING

    def relocates(self, old_base: int, new_base: int, size: int) -> bool:
        """Whether this mode's fence carries a tenant's pointers from a
        ``size``-byte partition at ``old_base`` onto one at ``new_base``
        — the one relocation rule every move of a partition asks.

        Kernel pointer parameters stay virtual after a move
        (:class:`~repro.core.elastic.ElasticClient`), so only the fence
        can relocate them: ``(addr & mask) | base`` keeps the offset
        from any size-aligned base; ``base + (addr - base) % size``
        keeps it iff the move is a whole number of sizes; checking and
        none leave the address as it is.
        """
        if self is FencingMode.BITWISE:
            return True
        if self is FencingMode.MODULO:
            return (new_base - old_base) % size == 0
        return new_base == old_base


_EXTRA_PARAMS = {
    FencingMode.NONE: (),
    FencingMode.BITWISE: ("guardian_base", "guardian_mask"),
    FencingMode.MODULO: (
        "guardian_base", "guardian_size", "guardian_magic"
    ),
    FencingMode.CHECKING: ("guardian_base", "guardian_end"),
}

