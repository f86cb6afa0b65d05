"""A byte-bounded cache of what a PTX text compiles or patches to.

Parsing, validating, compiling and patching are pure functions of the
PTX text, and a library's text is byte-identical for every tenant that
loads it, so their results are kept process-wide: the driver JIT keeps
module images (:mod:`repro.driver.jit`), the patch front end keeps
patched texts (:mod:`repro.core.patcher`). Both use this class, and
both follow the same three rules because the texts come from tenants:

- a key carries the **whole text** and is compared by equality - a bare
  digest would let a collision serve one tenant another tenant's code;
- entries are weighed by their source bytes and the least recently used
  are dropped past ``max_bytes``, so a tenant streaming distinct texts
  evicts, never grows the process. A dropped value that something still
  holds keeps working; it is only no longer found;
- the lock covers the bookkeeping, never a build: two threads that miss
  together may both build, the first to finish is published whole and
  the second gets that one back.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional, TypeVar

V = TypeVar("V")


class TextCache:
    """Least-recently-used values under a total source-byte bound."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, tuple[object, int]] = (
            OrderedDict())
        self._bytes = 0
        self._mutex = threading.Lock()

    def get(self, key: Hashable) -> Optional[object]:
        """The value cached under ``key`` (now the most recent), or
        None."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: V, weight: int) -> V:
        """Publish ``value`` and return what ``key`` now maps to: the
        value an earlier builder published, else ``value`` itself. A
        value heavier than the whole bound is returned unkept."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                return entry[0]
            if weight > self.max_bytes:
                return value
            self._entries[key] = (value, weight)
            self._bytes += weight
            while self._bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
            return value

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()
            self._bytes = 0

    @property
    def bytes(self) -> int:
        """Source bytes the cached values are weighed at."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
