"""Runtime of the block-vectorised kernel engine.

:class:`repro.gpu.codegen.BlockCodegen` compiles a kernel into one
*block function* that executes a *span* at once - one thread block, or
several blocks of one launch when the kernel keeps no per-block state
(no ``.shared``, no ``bar``): every PTX register is either a Python
scalar (the value is uniform across the live threads) or a numpy *lane
vector* with one element per live thread, the span's blocks laid out
one after the other. This module is what that generated code runs
against:

- the value helpers that make one emitted expression mean the same
  thing for a Python scalar and for a lane vector;
- divergence bookkeeping (:class:`BlockRun`): groups of lanes parked at
  a basic block or at ``bar.sync``, lowest block first, merged when
  they meet;
- checked gathers/scatters over the sparse global memory and the
  block's shared memory, with an undo log, and the chunked helpers of
  a counted loop run along its trip axis;
- the commit step: conflict detection, then the replay of the span's
  global accesses through the L1/L2 tag lists *in the per-thread
  engine's order*;
- :class:`BlockRuntime`, which binds all of it to one device.

Exactness contract
------------------
Scalars run the very expressions the per-thread JIT runs (Python
integers and floats), except that a 64-bit integer scalar is kept in
two's complement like the lanes it will meet. Lane vectors are
fixed-width, so they carry invariants instead:

========  =========  ==================================================
class     dtype      invariant
========  =========  ==================================================
``i``     int64      32-bit-or-narrower integer registers hold the
                     JIT's natural value, within ``[-2**31, 2**32)``
``l``     int64      64-bit integer registers hold the JIT's value
                     modulo ``2**64`` (two's complement)
``f``     float64    f32/f64 registers (f32 is rounded on store only)
``p``     bool       predicates
========  =========  ==================================================

Whatever would leave an invariant, and every event the per-thread
engine reports as an exception, raises inside the block function
(:class:`Bail` or the numpy/Python error itself).
:meth:`BlockRuntime.run` then rolls global memory back and the executor
re-runs the span's blocks one at a time, a single block on the
per-thread JIT, which produces the reference outcome - including the
exception and the partial memory state of a faulting kernel.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.gpu.codegen import (
    NONFINITE_ENV,
    SFU_FORMULAS,
    float_cvt,
    float_to_int,
    ptx_max,
    ptx_min,
    sfu_limit,
)
from repro.gpu.memory import PAGE_SIZE

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
_HALF64 = 1 << 63

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1

_nd = np.ndarray
_I8 = np.dtype(np.int64)
_U8 = np.dtype(np.uint64)
_F8 = np.dtype(np.float64)
_B1 = np.dtype(np.bool_)
_and_reduce = np.bitwise_and.reduce
_or_reduce = np.bitwise_or.reduce

#: numpy floating-point events that the per-thread engine either
#: raises for (division by zero) or that Python floats treat
#: differently (silent inf/nan): all of them end the vectorised
#: attempt. Underflow is silent in both worlds.
ERRSTATE = dict(over="raise", divide="raise", invalid="raise",
                under="ignore")


class Bail(Exception):
    """The block engine cannot reproduce this attempt exactly; the
    executor re-runs a span block by block, a block on the per-thread
    JIT."""


#: What ends a vectorised attempt: :class:`Bail` (a fault, a lane
#: leaving its invariant, a cross-thread access, a budget), the numpy
#: events of ``ERRSTATE`` and the errors the scalar expressions share
#: with the JIT (``ZeroDivisionError``, ``OverflowError``). Anything
#: else is a bug in this engine and propagates rather than hiding as a
#: slow launch.
GIVE_UP = (Bail, ArithmeticError, MemoryError)


def _cnz(mask) -> int:
    """Lanes set in ``mask``, as a Python int: counts flow into launch
    results and cache statistics, which callers serialise."""
    return int(np.count_nonzero(mask))


# --------------------------------------------------------------------------
# Value helpers (names are referenced by generated source)
# --------------------------------------------------------------------------


def _w64(x):
    """64-bit wrap. int64 lanes wrap by themselves; scalars are kept
    in the same two's complement form (not the JIT's ``[0, 2**64)``),
    so that a scalar always combines with lanes without overflow.
    Every use that is not a ring operation reads one of the views
    below."""
    if type(x) is _nd:
        return x
    return ((x + _HALF64) & MASK64) - _HALF64


def _n32(x):
    """A signed narrow result stays a natural integer in the JIT; the
    lane representation is exact only while it is a true s32."""
    if type(x) is _nd:
        if _cnz(x.astype(np.int32) != x):
            raise Bail("signed 32-bit value out of range")
        return x
    if type(x) is int and -0x80000000 <= x <= 0x7FFFFFFF:
        return x
    raise Bail("signed 32-bit value out of range")


def _signed_view(bits: int, np_type):
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits

    def view(x):
        if type(x) is _nd:
            return x.astype(np_type)
        x &= mask
        return x - full if x >= half else x

    return view


def _sign_extended(bits: int, np_type):
    """The signed reading as a *register value*: lanes stay int64."""
    view = _signed_view(bits, np_type)

    def extend(x):
        x = view(x)
        return x.astype(_I8) if type(x) is _nd else x

    return extend


def _sv64(x):
    if type(x) is _nd:
        return x
    x &= MASK64
    return x - (1 << 64) if x >= 1 << 63 else x


def _uv64(x):
    """Unsigned reading of a 64-bit value."""
    return x.view(_U8) if type(x) is _nd else x & MASK64


def _flt(x):
    return x.astype(_F8, copy=False) if type(x) is _nd else float(x)


def _f2i(x, rounding: str, low: int, high: int):
    """A float-to-integer ``cvt``: the scalar rule, lane by lane (a
    u64 result in two's complement)."""
    if type(x) is not _nd:
        return float_to_int(x, rounding, low, high)
    return np.array([_w64(float_to_int(v, rounding, low, high))
                     for v in x.tolist()], dtype=_I8)


def _f2f(x, integral, saturate: bool):
    """``codegen.float_cvt``, lane by lane."""
    if type(x) is not _nd:
        return float_cvt(x, integral, saturate)
    return np.array([float_cvt(v, integral, saturate) for v in x.tolist()],
                    dtype=_F8)


def _min(a, b):
    """``codegen.ptx_min`` on lanes."""
    if type(a) is _nd or type(b) is _nd:
        return np.where((b < a) | (a != a), b, a)
    return ptx_min(a, b)


def _max(a, b):
    if type(a) is _nd or type(b) is _nd:
        return np.where((b > a) | (a != a), b, a)
    return ptx_max(a, b)


def _sel(a, b, p):
    if type(p) is _nd:
        return np.where(p, a, b)
    return a if p else b


def _asp(x):
    """Predicate lanes are bool; 0/1 integers mean the same."""
    if type(x) is _nd and x.dtype is not _B1:
        return x != 0
    return x


def _truncdiv(a, b):
    if type(a) is _nd or type(b) is _nd:
        q = abs(a) // abs(b)
        return np.where((a < 0) != (b < 0), -q, q)
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _truncrem(a, b):
    return a - _truncdiv(a, b) * b


def _sh(b):
    """A shift amount as PTX reads it, u32. numpy shifts past the
    width fill as PTX does; a scalar is clamped to 64 so that Python
    builds no huge integer."""
    return b & MASK32 if type(b) is _nd else min(b & MASK32, 64)


def _shr64(a, b):
    if type(a) is _nd:
        if type(b) is _nd:
            raise Bail("lane-varying 64-bit shift amount")
        return (a.view(_U8) >> b).view(_I8)
    if type(b) is _nd:
        raise Bail("lane-varying 64-bit shift amount")
    return _w64((a & MASK64) >> b)


def _unsigned_pair(a, b):
    a = _uv64(a)
    b = _uv64(b)
    if type(a) is not _nd:
        a = np.uint64(a)
    if type(b) is not _nd:
        b = np.uint64(b)
    return a, b


def _udiv64(a, b):
    if type(a) is _nd or type(b) is _nd:
        a, b = _unsigned_pair(a, b)
        return (a // b).view(_I8)
    return _w64((a & MASK64) // (b & MASK64))


def _urem64(a, b):
    if type(a) is _nd or type(b) is _nd:
        a, b = _unsigned_pair(a, b)
        return (a % b).view(_I8)
    return _w64((a & MASK64) % (b & MASK64))


def _mulhi64(a, b):
    """High 64 bits of an unsigned 64x64 product (the modulo fence's
    magic-number division), by 32-bit limbs on lanes."""
    if type(a) is not _nd and type(b) is not _nd:
        return _w64(((a & MASK64) * (b & MASK64)) >> 64)
    a, b = _unsigned_pair(a, b)
    a0 = a & MASK32
    a1 = a >> 32
    b0 = b & MASK32
    b1 = b >> 32
    t = a1 * b0 + ((a0 * b0) >> 32)
    w1 = t & MASK32
    w2 = t >> 32
    t = a0 * b1 + w1
    return (a1 * b1 + w2 + (t >> 32)).view(_I8)


def _live(m, divisor):
    """``divisor`` with 1 on the lanes outside ``m``."""
    return np.where(m, divisor, 1) if type(divisor) is _nd else divisor


def _mset(m, new, old):
    """Assign ``new`` on the lanes of ``m``, keep ``old`` elsewhere."""
    return np.where(m, new, old)


def _msetp(m, new, old):
    out = np.where(m, new, old)
    return out if out.dtype is _B1 else out != 0


def _compact(keep, *values):
    return tuple(
        value[keep] if type(value) is _nd else value for value in values
    )


# --------------------------------------------------------------------------
# The trip axis: a counted loop's trips as the rows of a matrix
# --------------------------------------------------------------------------

def _tcol(trips: int):
    """The counter's offsets over a chunk, a (trips x 1) column."""
    return np.arange(trips, dtype=_I8)[:, None]


def _last(x):
    """A register after a chunk: its last trip's value, a (trips x 1)
    column's as a Python scalar (uniform, as the per-trip path holds
    it), a row as a copy that does not keep the chunk's matrix alive.
    Scalars and lane vectors did not vary with the trip."""
    if type(x) is not _nd or x.ndim == 1:
        return x
    row = x[-1]
    return row[0].item() if len(row) == 1 else row.copy()


def _fold(acc, addends, acc_first: bool, trips: int):
    """A reduction's accumulator after a chunk: one double addition per
    trip, ``acc + addend`` or ``addend + acc`` as the body wrote it.
    ``np.add.accumulate`` adds in trip order; with no NaN the operand
    order cannot show (addition commutes), and NaN is sticky, so a
    NaN-free result proves there was none. Otherwise, or for an addend
    the trips share, the rows are added one by one."""
    if type(addends) is _nd and addends.ndim == 2:
        width = len(acc) if type(acc) is _nd else addends.shape[1]
        sums = np.empty((trips + 1, width))
        sums[0] = acc
        sums[1:] = addends
        total = np.add.accumulate(sums, axis=0)[-1].copy()
        if not np.isnan(total).any():
            return total if type(acc) is _nd or width > 1 else total.item()
        if type(acc) is not _nd and width == 1:
            addends = addends[:, 0].tolist()  # the per-trip scalars
    else:
        addends = repeat(addends, trips)
    for row in addends:
        acc = acc + row if acc_first else row + acc
    return acc


def _make_sfu(op: str, formula: str):
    scalar = eval(  # noqa: S307 - fixed table above, no outside input
        "lambda _s: " + formula.format("_s"), {"_math": math}
    )

    def lane(value):
        value = float(value)
        try:
            return scalar(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            return sfu_limit(op, value)

    def sfu(x):
        # numpy's SIMD transcendentals differ from libm in the last
        # ulp, so lanes go through the scalar formula one by one.
        if type(x) is _nd:
            return np.array([lane(v) for v in x.tolist()], dtype=_F8)
        return lane(x)

    return sfu


VALUE_ENV = {
    "_nd": _nd,
    "_cnz": _cnz,
    "_w64": _w64,
    "_n32": _n32,
    "_sv8": _signed_view(8, np.int8),
    "_sv16": _signed_view(16, np.int16),
    "_sv32": _signed_view(32, np.int32),
    "_sv64": _sv64,
    "_sx8": _sign_extended(8, np.int8),
    "_sx16": _sign_extended(16, np.int16),
    "_sx32": _sign_extended(32, np.int32),
    "_uv64": _uv64,
    "_flt": _flt,
    "_f2i": _f2i,
    "_f2f": _f2f,
    "_min": _min,
    "_max": _max,
    "_sel": _sel,
    "_asp": _asp,
    "_truncdiv": _truncdiv,
    "_truncrem": _truncrem,
    "_sh": _sh,
    "_shr64": _shr64,
    "_udiv64": _udiv64,
    "_urem64": _urem64,
    "_mulhi64": _mulhi64,
    "_live": _live,
    "_mset": _mset,
    "_msetp": _msetp,
    "_compact": _compact,
    "_zeros": lambda width: np.zeros(width, dtype=_I8),
    "_Bail": Bail,
    "_tcol": _tcol,
    "_last": _last,
    "_fold": _fold,
    **NONFINITE_ENV,
    **{f"_sfu_{name}": _make_sfu(name, formula)
       for name, formula in SFU_FORMULAS.items()},
}


# --------------------------------------------------------------------------
# One block in flight
# --------------------------------------------------------------------------


def lane_geometry(block: tuple[int, int, int], warp_size: int,
                  span: int) -> tuple:
    """Per-lane special registers of ``span`` blocks of one shape
    (shared, read-only), lanes numbered across the span, block-major.

    An axis of extent 1 stays the scalar 0: uniform."""
    bx, by, bz = block
    threads = bx * by * bz
    assert threads * span <= 1 << 16  # lane ids are uint16
    lanes = np.arange(threads * span, dtype=np.int64)
    linear = lanes % threads
    tid0 = linear % bx if bx > 1 else 0
    tid1 = (linear // bx) % by if by > 1 else 0
    tid2 = linear // (bx * by) if bz > 1 else 0
    # A warp never straddles two blocks: the last one of a block whose
    # size is not a multiple of the warp size is short.
    warp_starts = lanes[linear % warp_size == 0]
    lane_ids = lanes.astype(np.uint16)
    return (tid0, tid1, tid2, linear % warp_size, linear // warp_size,
            lane_ids, warp_starts, lane_ids[threads::threads])


def span_ctaid(block_ids: list, grid: tuple[int, int, int], threads: int):
    """``%ctaid`` of a span's lanes: per axis a scalar while the
    span's blocks agree on it, else one value per lane."""
    gx, gy, _ = grid
    linear = block_ids[0] if len(block_ids) == 1 else np.array(block_ids)
    axes = (linear % gx, (linear // gx) % gy, linear // (gx * gy))
    if len(block_ids) == 1:
        return axes
    return tuple(
        int(axis[0]) if (axis == axis[0]).all() else np.repeat(axis, threads)
        for axis in axes
    )


class BlockRun:
    """State of one span while its block function runs.

    Groups are ``(mask, lane count)`` pairs over the *live* lanes (the
    register file is compacted whenever lanes retire), keyed by the
    basic block they wait at. ``pend`` holds runnable groups other
    than the current one, ``parked`` the groups waiting at
    ``bar.sync``.
    """

    __slots__ = (
        "tid0", "tid1", "tid2", "lane", "warp", "lanes", "width",
        "warp_starts", "block_bounds",
        "ntid", "ctaid", "nctaid", "threads", "exits", "out",
        "pend", "parked", "shared", "_shared_views",
        "glog", "gphases", "slog", "sphases", "logged", "tspan", "undo",
        "created",
    )

    def __init__(self, geometry: tuple, ctaid, grid, block,
                 shared: bytearray, exits: frozenset):
        (self.tid0, self.tid1, self.tid2, self.lane, self.warp,
         self.lanes, self.warp_starts, self.block_bounds) = geometry
        self.threads = self.width = len(self.lanes)
        self.ntid = block
        self.ctaid = ctaid
        self.nctaid = grid
        #: Basic blocks that only ``ret``: lanes waiting there retire
        #: first, so a tail block sheds its idle lanes before the body
        #: runs instead of dragging a mask through it.
        self.exits = exits
        #: Static (non-cache) cycles per thread, written at retirement.
        self.out = np.zeros(self.threads, dtype=_I8)
        self.pend: dict = {}
        self.parked: dict = {}
        self.shared = shared
        self._shared_views: dict = {}
        #: Access logs of the current barrier phase, then of all
        #: finished phases, see :func:`_log`.
        self.glog: list = []
        self.gphases: list = []
        self.slog: list = []
        self.sphases: list = []
        self.logged = 0
        #: ``(lo, hi)`` of each trip load since the last
        #: :func:`log_trips`.
        self.tspan: list = []
        #: ``(view, index, old values)`` of every global scatter.
        self.undo: list = []
        self.created: list = []

    # -- divergence ----------------------------------------------------------

    def _push(self, table: dict, pc: int, mask, count: int) -> None:
        held = table.get(pc)
        if held is None:
            table[pc] = (mask, count)
        else:
            table[pc] = (held[0] | mask, held[1] + count)

    def branch(self, taken, pc_taken: int, pc_fall: int, mask, count: int):
        """Resolve a lane-varying conditional branch of the current
        group; returns the ``(pc, mask, count)`` to continue with (a
        count of 0 tells the dispatch loop to pick from ``pend``)."""
        if mask is not None:
            taken = taken & mask
        jumping = _cnz(taken)
        if jumping == count:
            return pc_taken, mask, count
        if jumping == 0:
            return pc_fall, mask, count
        staying = ~taken if mask is None else mask & ~taken
        self._push(self.pend, pc_taken, taken, jumping)
        self._push(self.pend, pc_fall, staying, count - jumping)
        return -1, None, 0

    def guard(self, pred, negated: bool, mask, width: int):
        """Lanes of the current group on which a predicated
        instruction executes (None when there are none)."""
        if type(pred) is _nd:
            lanes = ~pred if negated else pred
            if mask is not None:
                lanes = lanes & mask
        elif bool(pred) == negated:
            return None
        elif mask is not None:
            lanes = mask
        else:
            lanes = np.ones(width, dtype=_B1)
        return lanes if lanes.any() else None

    def resched(self, pc: int, mask, count: int):
        """Park the current group (if any) and pick the next one:
        exit-only blocks first, otherwise the lowest block, so that
        diverged groups run until they meet again."""
        pend = self.pend
        if count:
            self._push(pend, pc, mask, count)
        choice = None
        for candidate in pend:
            if candidate in self.exits:
                choice = candidate
                break
        if choice is None:
            choice = min(pend)
        mask, count = pend.pop(choice)
        if count == self.width:
            mask = None
        return choice, mask, count

    def park(self, pc: int, mask, count: int) -> None:
        """The current group reached ``bar.sync``; it resumes at
        ``pc`` once every other group is parked or done."""
        self._push(self.parked, pc, mask, count)

    def release(self) -> bool:
        """Nothing is runnable: end the barrier phase and wake the
        parked groups. False when the block is finished."""
        if not self.parked:
            return False
        self.phase()
        self.pend.update(self.parked)
        self.parked.clear()
        return True

    def phase(self) -> None:
        self.gphases.append(self.glog)
        self.glog = []
        self.sphases.append(self.slog)
        self.slog = []

    def retire(self, lanes, mask, uniform_cycles: int, lane_cycles) -> None:
        if mask is not None:
            lanes = lanes[mask]
            lane_cycles = lane_cycles[mask]
        self.out[lanes] = lane_cycles + uniform_cycles

    def compact(self, keep) -> int:
        """Drop retired lanes from every waiting group."""
        self.width = _cnz(keep)
        for table in (self.pend, self.parked):
            for pc, (mask, count) in table.items():
                table[pc] = (mask[keep], count)
        return self.width

    # -- shared memory -----------------------------------------------------------

    def shared_view(self, dtype):
        view = self._shared_views.get(dtype)
        if view is None:
            view = np.frombuffer(
                self.shared, dtype=dtype,
                count=len(self.shared) // dtype.itemsize,
            )
            self._shared_views[dtype] = view
        return view


# --------------------------------------------------------------------------
# Memory helpers
# --------------------------------------------------------------------------

#: dtype -> (load view dtype, store view dtype, is_float)
_MEMORY_TYPES = {
    "f32": (np.float32, np.float32, True),
    "f64": (np.float64, np.float64, True),
    "u8": (np.uint8, np.uint8, False), "b8": (np.uint8, np.uint8, False),
    "s8": (np.int8, np.uint8, False),
    "u16": (np.uint16, np.uint16, False),
    "b16": (np.uint16, np.uint16, False),
    "s16": (np.int16, np.uint16, False),
    "u32": (np.uint32, np.uint32, False),
    "b32": (np.uint32, np.uint32, False),
    "s32": (np.int32, np.uint32, False),
    "u64": (np.uint64, np.uint64, False),
    "b64": (np.uint64, np.uint64, False),
    "s64": (np.int64, np.uint64, False),
}


def _loaded(values, is_float: bool):
    """Raw gathered elements -> register lanes of their class."""
    if is_float:
        return values.astype(_F8, copy=False)
    if values.dtype is _U8:
        return values.view(_I8)
    return values.astype(_I8, copy=False)


def _merge(mask, values, old, width: int):
    out = np.empty(width, dtype=values.dtype)
    out[...] = old
    out[mask] = values
    return out


def _raw_store_values(value, width: int, store_type, is_float: bool,
                      int_mask: int):
    """Register value -> the elements a store writes, full width."""
    if is_float:
        # float(), then the store's rounding: beyond the f32 range that
        # is infinity, as the per-thread engines pack it.
        value = (value.astype(_F8, copy=False) if type(value) is _nd
                 else np.full(width, float(value), dtype=_F8))
        try:
            return value.astype(store_type, copy=False)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                return value.astype(store_type)
    if type(value) is _nd:
        if store_type is np.uint64:
            return value.view(_U8)
        return value.astype(store_type)
    return np.full(width, value & int_mask, dtype=store_type)


def _span(addresses, width: int, low: int, high: int):
    """Bounds and alignment of one access, all lanes at once."""
    lo = int(addresses.min())
    hi = int(addresses.max())
    if (lo < low or hi + width > high
            or int(_or_reduce(addresses)) & (width - 1)):
        raise Bail("fault or misaligned access")
    return lo, hi


#: Lane accesses (global and shared together) one attempt - a block or
#: a span of them - may log before it is given up. The logs and the
#: undo log grow with every executed access, and a tenant's infinite
#: loop executes them until a watchdog fires; this keeps such an
#: attempt's footprint to tens of megabytes and hands the block to the
#: per-thread engine, whose memory use is constant. Five times the
#: largest block of the bench suite (410 k).
LOG_CAP = 1 << 21


def _log(run, log: list, entry: tuple) -> None:
    """Log one access of the lanes ``lanes``: entries are
    ``(thread ids, addresses, is_store, lo, hi)``, the addresses one
    per lane or a (trips x loads x lanes) block of them in program
    order (then with each load's ``(lo, hi)`` last), and ``[lo, hi]``
    a range holding them all."""
    run.logged += entry[1].size
    if run.logged > LOG_CAP:
        raise Bail("access log full")
    log.append(entry)


def log_trips(run, lanes, trips: int, *addresses) -> None:
    """Log a chunk's global loads as one (trips x loads x lanes) entry:
    trip by trip, a trip's loads in order, the sequence the per-trip
    path logs, so the commit replays the same accesses through the
    caches. The bounds are the ones the chunk's loads checked
    (:attr:`BlockRun.tspan`)."""
    block = np.empty((trips, len(addresses), len(lanes)), dtype=_I8)
    for load, address in enumerate(addresses):
        block[:, load] = address
    spans = run.tspan
    run.tspan = []
    _log(run, run.glog, (lanes, block, False, min(lo for lo, _ in spans),
                         max(hi for _, hi in spans), spans))


def _logged(entries: list):
    """``(threads, addresses)`` of some log entries, flat, in log
    order (a trip entry access by access)."""
    if len(entries) == 1 and entries[0][1].ndim == 1:
        return entries[0][0], entries[0][1]
    return (np.concatenate([entry[0] if entry[1].ndim == 1
                            else np.tile(entry[0],
                                         entry[1].size // len(entry[0]))
                            for entry in entries]),
            np.concatenate([entry[1].reshape(-1) for entry in entries]))


def make_block_memory_helpers(memory) -> tuple:
    """``(helpers, rollback)``: gather/scatter helpers over one
    device's sparse global memory plus the shared-memory ones (which
    only need the run), and the undo of a run's global scatters."""
    pages = memory._pages
    base = memory.base
    limit = memory.limit
    views: dict = {}

    def page_view(index: int, dtype, run, create: bool):
        page = pages.get(index)
        if page is None:
            if not create:
                return None
            page = bytearray(PAGE_SIZE)
            pages[index] = page
            run.created.append(index)
        entry = views.get((index, dtype))
        if entry is None or entry[0] is not page:
            entry = (page, np.frombuffer(page, dtype=dtype))
            views[(index, dtype)] = entry
        return entry[1]

    whole_pages_end = base + (memory.size >> _PAGE_SHIFT << _PAGE_SHIFT)

    def gather_one_page(run, addresses, dtype, width: int, shift: int):
        """The common load: every lane aligned and inside the (fully
        mapped) page of lane 0 - one reduction proves all of it.
        ``(values, lo, hi)``, bounds from the page and the reduction,
        or None to send the access through :func:`checked_gather`'s
        general path."""
        first = int(addresses[0])
        if not base <= first < whole_pages_end:
            return None
        page = (first - base) >> _PAGE_SHIFT
        origin = base + (page << _PAGE_SHIFT)
        offsets = addresses - origin
        # A negative lane sets the sign bit, a lane past the page a bit
        # above it, a misaligned one a bit below the width.
        union = int(_or_reduce(offsets))
        if not 0 <= union < PAGE_SIZE or union & (width - 1):
            return None
        view = page_view(page, dtype, run, False)
        values = (np.zeros(len(addresses), dtype=dtype) if view is None
                  else view[offsets >> shift])
        return values, origin + int(_and_reduce(offsets)), origin + union

    def checked_gather(run, addresses, dtype, width: int, shift: int):
        """``(values, lo, hi)`` of a load: checked, gathered and
        bounded."""
        found = gather_one_page(run, addresses, dtype, width, shift)
        if found is not None:
            return found
        lo, hi = _span(addresses, width, base, limit)
        return gather(run, addresses, lo, hi, dtype, shift), lo, hi

    def gather(run, addresses, lo: int, hi: int, dtype, shift: int):
        first = (lo - base) >> _PAGE_SHIFT
        last = (hi - base) >> _PAGE_SHIFT
        if first == last:
            view = page_view(first, dtype, run, False)
            if view is None:
                return np.zeros(len(addresses), dtype=dtype)
            origin = base + (first << _PAGE_SHIFT)
            return view[(addresses - origin) >> shift]
        offsets = addresses - base
        page_of = offsets >> _PAGE_SHIFT
        out = np.zeros(len(addresses), dtype=dtype)
        for index in np.unique(page_of).tolist():
            view = page_view(index, dtype, run, False)
            if view is not None:
                here = page_of == index
                out[here] = view[
                    (offsets[here] - (index << _PAGE_SHIFT)) >> shift]
        return out

    def scatter(run, addresses, lo: int, hi: int, dtype, shift: int,
                values) -> None:
        first = (lo - base) >> _PAGE_SHIFT
        last = (hi - base) >> _PAGE_SHIFT
        if first == last:
            view = page_view(first, dtype, run, True)
            index = (addresses - (base + (first << _PAGE_SHIFT))) >> shift
            run.undo.append((view, index, view[index]))
            view[index] = values
            return
        offsets = addresses - base
        page_of = offsets >> _PAGE_SHIFT
        for page_index in np.unique(page_of).tolist():
            view = page_view(page_index, dtype, run, True)
            here = page_of == page_index
            index = (offsets[here] - (page_index << _PAGE_SHIFT)) >> shift
            run.undo.append((view, index, view[index]))
            view[index] = values[here]

    def read_global(run, lanes, address, dtype, width: int, shift: int):
        values, lo, hi = checked_gather(run, address, dtype, width, shift)
        _log(run, run.glog, (lanes, address, False, lo, hi))
        return values

    def write_global(run, lanes, address, dtype, width: int, shift: int,
                     values) -> None:
        lo, hi = _span(address, width, base, limit)
        _log(run, run.glog, (lanes, address, True, lo, hi))
        scatter(run, address, lo, hi, dtype, shift, values)

    def read_shared(run, lanes, address, dtype, width: int, shift: int):
        lo, hi = _span(address, width, 0, len(run.shared))
        _log(run, run.slog, (lanes, address, False, lo, hi))
        return run.shared_view(dtype)[address >> shift]

    def write_shared(run, lanes, address, dtype, width: int, shift: int,
                     values) -> None:
        lo, hi = _span(address, width, 0, len(run.shared))
        run.shared_view(dtype)[address >> shift] = values
        _log(run, run.slog, (lanes, address, True, lo, hi))

    def trip_load(name: str):
        """A global load of every trip of a chunk at once. The address
        is a scalar or lane vector the trips share, a (trips x 1)
        column or a (trips x lanes) matrix; the value has its shape.
        All of it is checked before anything is read; the generated
        code logs it with :func:`log_trips`, which takes the bounds
        from :attr:`BlockRun.tspan`."""
        load_type, _, is_float = _MEMORY_TYPES[name]
        load_type = np.dtype(load_type)
        width = load_type.itemsize
        shift = width.bit_length() - 1

        def load(run, address):
            uniform = type(address) is not _nd
            flat = np.full(1, address) if uniform else address.reshape(-1)
            values, lo, hi = checked_gather(run, flat, load_type, width,
                                            shift)
            run.tspan.append((lo, hi))
            if uniform:
                value = values[0].item()
                return _w64(value) if width == 8 and not is_float else value
            return _loaded(values, is_float).reshape(address.shape)

        return load

    def make_accessors(name: str, read, write):
        """``(load, store)`` of one PTX type in one state space; the
        generated code calls them with the group's lanes and mask."""
        load_type, store_type, is_float = _MEMORY_TYPES[name]
        load_type = np.dtype(load_type)
        store_dtype = np.dtype(store_type)
        width = load_type.itemsize
        shift = width.bit_length() - 1
        int_mask = (1 << (8 * width)) - 1

        def load(run, address, lanes, mask, old):
            uniform = type(address) is not _nd
            if uniform:
                address = np.full(len(lanes), address)
            if mask is not None:
                address = address[mask]
                lanes = lanes[mask]
            values = read(run, lanes, address, load_type, width, shift)
            if uniform and mask is None:
                value = values[0].item()
                return _w64(value) if width == 8 and not is_float else value
            values = _loaded(values, is_float)
            if mask is None:
                return values
            return _merge(mask, values, old, len(mask))

        def store(run, address, value, lanes, mask) -> None:
            count = len(lanes)
            if type(address) is not _nd:
                address = np.full(count, address)
            values = _raw_store_values(value, count, store_type, is_float,
                                       int_mask)
            if mask is not None:
                address = address[mask]
                lanes = lanes[mask]
                values = values[mask]
            write(run, lanes, address, store_dtype, width, shift, values)

        return load, store

    env = {}
    for name in _MEMORY_TYPES:
        env[f"_vldg_{name}"], env[f"_vstg_{name}"] = make_accessors(
            name, read_global, write_global)
        env[f"_vlds_{name}"], env[f"_vsts_{name}"] = make_accessors(
            name, read_shared, write_shared)
        env[f"_tldg_{name}"] = trip_load(name)
    env["_tlog"] = log_trips

    def rollback(run) -> None:
        """Undo every global scatter of ``run`` (newest first) and
        drop the pages it materialised."""
        for view, index, old in reversed(run.undo):
            view[index] = old
        for page_index in run.created:
            del pages[page_index]
        run.undo.clear()
        run.created.clear()

    return env, rollback


# --------------------------------------------------------------------------
# Commit: conflict detection and the cache replay
# --------------------------------------------------------------------------

#: Accesses flattened, checked and filtered at a time. Bounds the
#: commit's working memory: an attempt may log up to ``LOG_CAP`` of
#: them. (A divergent phase the walk replays is sorted in pieces of
#: about this many, cut between blocks: one block's accesses are
#: sorted at once whatever their number, so a span's commit needs the
#: memory one block's did.)
COMMIT_CHUNK = 1 << 14


def _chunks(entries: list):
    """One phase's log in log order, about ``COMMIT_CHUNK`` accesses at
    a time: ``(entries, threads, addresses)``, flat, except that trip
    entries (:func:`log_trips`) of one group and shape come stacked
    along their trip axis, ``threads`` their lanes."""
    start, count = 0, len(entries)
    while start < count:
        entry = entries[start]
        stop = start + 1
        if entry[1].ndim > 1:
            lanes, shape = entry[0], entry[1].shape[1:]
            size = entry[1].size
            while (stop < count and entries[stop][0] is lanes
                   and entries[stop][1].shape[1:] == shape
                   and size + entries[stop][1].size <= COMMIT_CHUNK):
                size += entries[stop][1].size
                stop += 1
            part = entries[start:stop]
            yield part, lanes, (entry[1] if len(part) == 1 else
                                np.concatenate([e[1] for e in part]))
        else:
            size = len(entry[0])
            while (stop < count and entries[stop][1].ndim == 1
                   and size + len(entries[stop][0]) <= COMMIT_CHUNK):
                size += len(entries[stop][0])
                stop += 1
            yield (entries[start:stop], *_logged(entries[start:stop]))
        start = stop


def _rows(entries: list) -> list:
    """Log entries with one access per lane: a trip entry's rows."""
    return [(entry[0], row) for entry in entries
            for row in entry[1].reshape(-1, len(entry[0]))]


def _thread_major(entries: list, block_bounds):
    """Yield one phase's accesses as ``(threads, addresses)`` chunks in
    the per-thread engine's order: block after block, thread-major
    within a block, program order within a thread (log order *is*
    program order for any one thread, and lanes are numbered
    block-major, so for a barrier-free span that is a sort by lane).
    ``entries`` hold one access per lane (:func:`_rows`). Chunks are
    whole threads, ascending."""
    lanes = entries[0][0]
    if all(entry[0] is lanes for entry in entries):
        # Every access was made by the same full group: the log is an
        # (accesses x lanes) matrix and the order is its transpose,
        # taken a few lane columns at a time.
        matrix = np.array([entry[1] for entry in entries])
        rows = len(matrix)
        step = max(1, COMMIT_CHUNK // rows)
        for start in range(0, len(lanes), step):
            yield (np.repeat(lanes[start:start + step], rows),
                   matrix[:, start:start + step].T.reshape(-1))
        return
    logged = sum(len(entry[0]) for entry in entries)
    blocks_per_sort = -(-(len(block_bounds) + 1) * COMMIT_CHUNK // logged)
    for part in _split_at(entries,
                          block_bounds[blocks_per_sort - 1::blocks_per_sort]):
        threads, addresses = _logged(part)
        order = np.argsort(threads, kind="stable")  # radix on uint16
        yield threads[order], addresses[order]


def _split_at(entries: list, bounds):
    """Cut log entries at the lane ids ``bounds`` (lanes ascend within
    an entry): one non-empty entry list per lane range."""
    if not len(bounds):
        yield entries
        return
    cuts = [(0, *entry[0].searchsorted(bounds).tolist(), len(entry[0]))
            for entry in entries]
    for piece in range(len(bounds) + 1):
        part = [
            (entry[0][cut[piece]:cut[piece + 1]],
             entry[1][cut[piece]:cut[piece + 1]])
            for entry, cut in zip(entries, cuts)
            if cut[piece] != cut[piece + 1]
        ]
        if part:
            yield part


class _Stores:
    """The cells one phase stored to, each with its (single) owner."""

    def __init__(self, entries: list, shift: int):
        self.shift = shift
        self.entries = entries
        threads, cells = _logged(entries)
        cells = cells >> shift
        if not (cells[1:] >= cells[:-1]).all():
            order = np.argsort(cells, kind="stable")
            cells, threads = cells[order], threads[order]
        self.cells = cells
        self.owners = threads
        self.first = int(self.cells[0])
        self.last = int(self.cells[-1])

    def shared_between_threads(self) -> bool:
        cells, owners = self.cells, self.owners
        return bool(((cells[1:] == cells[:-1])
                     & (owners[1:] != owners[:-1])).any())

    def meets(self, lo: int, hi: int) -> bool:
        """Whether addresses in ``[lo, hi]`` may be stored cells."""
        return lo >> self.shift <= self.last and hi >> self.shift >= self.first

    def near(self, entries: list) -> list:
        """The loads whose bounds meet the stored cells' range. A store
        touches only cells its own thread stored (else
        :meth:`shared_between_threads` would have said so), and so
        does a load of the very cells a store of the phase stored, lane
        for lane."""
        return [entry for entry in entries if not entry[2]
                and self.meets(entry[3], entry[4])
                and not any(_same_access(entry, store)
                            for store in self.entries)]

    def touched_by_others(self, threads, addresses) -> bool:
        """Whether a thread touched a cell another one stored; a trip
        entry's ``threads`` are its lanes."""
        cells = addresses >> self.shift if self.shift else addresses
        near = (cells >= self.first) & (cells <= self.last)
        if not near.any():
            return False
        cells = cells[near]
        slot = np.searchsorted(self.cells, cells)
        slot[slot == len(self.cells)] = 0
        hit = self.cells[slot] == cells
        threads = np.broadcast_to(threads, near.shape)[near]
        return bool((hit & (self.owners[slot] != threads)).any())


def _same_access(one, other) -> bool:
    """Whether two log entries are the same lanes at the same
    addresses."""
    ours, theirs = one[1], other[1]
    if ours is not theirs and not (
            ours.shape == theirs.shape and ours[0] == theirs[0]
            and ours[-1] == theirs[-1] and np.array_equal(ours, theirs)):
        return False
    return one[0] is other[0] or np.array_equal(one[0], other[0])


def _phase_stores(entries: list, shift: int):
    """The phase's store set, or None; raises :class:`Bail` when two
    threads stored one cell - with any other thread touching a stored
    cell (checked per chunk), the one case where lockstep execution
    and thread-after-thread execution can differ."""
    stores = [entry for entry in entries if entry[2]]
    if not stores:
        return None
    stores = _Stores(stores, shift)
    if stores.shared_between_threads():
        raise Bail("two threads store one location in one phase")
    return stores


_START = np.zeros(1, dtype=np.intp)


class _Touches:
    """The lines a span touches, each with the thread-major keys of its
    first and last touch, gathered a chunk at a time. A key orders
    accesses as the per-thread engine makes them: by phase, lane, then
    position in the phase's log (program order within a thread). Once
    more lines arrive than ``capacity`` (every line the L1 holds), the
    span cannot fit and nothing more is kept."""

    def __init__(self, capacity: int, scale: int):
        self.capacity = capacity
        self.scale = scale
        self.lines: list = []
        self.first: list = []
        self.last: list = []
        self.pending = 0
        self.full = False

    def add(self, threads, lines, lane_base: int, position: int) -> None:
        """A chunk's lines as :func:`_chunks` gives its addresses:
        ``lane_base`` is the phase's (phase number x lanes),
        ``position`` the chunk's first access's place in the phase's
        log."""
        if self.full or not lines.size:
            return
        scale = self.scale
        if lines.ndim > 1:
            # Along a row of a trip entry the lanes ascend, so an access
            # whose left neighbour touched its line is not the line's
            # first touch, nor, mirrored, the last; nor is one whose
            # lane touched the line one trip earlier (later).
            width, trip = len(threads), lines[0].size
            lines = lines.reshape(-1)
            across = lines[1:] == lines[:-1]
            across[width - 1::width] = False  # a row's first lane
            later = np.zeros(len(lines), dtype=_B1)
            earlier = np.zeros(len(lines), dtype=_B1)
            later[1:] = across
            earlier[:-1] = across
            along = lines[trip:] == lines[:-trip]
            later[trip:] |= along
            earlier[:-trip] |= along
            at = np.flatnonzero(~(later & earlier))
            keys = ((threads[at % width].astype(_I8) + lane_base) * scale
                    + (at + position))
            self._keep(lines[at], keys, keys)
            return
        # An access whose left neighbour is the same line from a lower
        # lane is not the line's first touch (that neighbour comes
        # earlier in thread-major order), nor, mirrored, the last: of a
        # run of them only the ends count.
        joins = (lines[1:] == lines[:-1]) & (threads[1:] > threads[:-1])
        edges = np.ones(len(lines) + 1, dtype=_B1)
        np.logical_not(joins, out=edges[1:-1])
        cuts = np.flatnonzero(edges)
        starts, ends = cuts[:-1], cuts[1:] - 1
        self._keep(lines[starts],
                   (threads[starts].astype(_I8) + lane_base) * scale
                   + (starts + position),
                   (threads[ends].astype(_I8) + lane_base) * scale
                   + (ends + position))

    def _keep(self, lines, first, last) -> None:
        self.lines.append(lines)
        self.first.append(first)
        self.last.append(last)
        self.pending += len(lines)
        if self.pending > COMMIT_CHUNK:
            self._reduce()

    def _reduce(self) -> None:
        lines = np.concatenate(self.lines)
        order = lines.argsort()
        lines = lines[order]
        starts = np.flatnonzero(lines[1:] != lines[:-1]) + 1
        if len(starts) >= self.capacity:
            self.full = True
            self.lines = self.first = self.last = []
            return
        starts = np.concatenate((_START, starts))
        self.lines = [lines[starts]]
        self.first = [np.minimum.reduceat(
            np.concatenate(self.first)[order], starts)]
        self.last = [np.maximum.reduceat(
            np.concatenate(self.last)[order], starts)]
        self.pending = len(starts)

    def result(self):
        """``(lines, first keys, last keys)``, lines ascending, or None
        when they cannot all fit."""
        if self.lines:
            self._reduce()
        if self.full:
            return None
        if not self.lines:
            return _EMPTY, _EMPTY, _EMPTY
        return self.lines[0], self.first[0], self.last[0]


_EMPTY = np.zeros(0, dtype=_I8)


def make_commit(hierarchy, resolve, resolve_l2, cost_l1: int):
    """Bind the commit step to one device's cache hierarchy.

    ``resolve`` and ``resolve_l2`` are the per-thread JIT's own
    tag-list walks (:func:`repro.gpu.codegen.make_memory_helpers`),
    whole and from an L1 miss on, so every access that can change L2
    state, and every L1 access the bulk replay cannot prove, goes
    through the same code.
    """
    l1 = hierarchy.l1
    line_bytes = l1.line_bytes
    line_shift = line_bytes.bit_length() - 1
    if 1 << line_shift != line_bytes:
        line_shift = None
    num_sets = l1.num_sets
    ways_per_set = l1.associativity
    l1_sets = l1._sets
    set_type = (np.uint8 if num_sets <= 1 << 8 else
                np.uint16 if num_sets <= 1 << 16 else np.int64)
    l1_stats = l1.stats
    counts = hierarchy.level_counts

    def way0_hits(addresses):
        """Mask of the accesses whose predecessor *in their L1 set*
        touched the same line: whatever came before, that line is in
        way 0 by then, so the access is a hit that moves nothing.
        A property of the sequence alone - no cache state is read."""
        lines = addresses // line_bytes
        order = np.argsort((lines % num_sets).astype(set_type),
                           kind="stable")
        by_set = lines[order]
        repeat = np.empty(len(lines), dtype=np.bool_)
        repeat[0] = False
        np.equal(by_set[1:], by_set[:-1], out=repeat[1:])
        mask = np.empty(len(lines), dtype=np.bool_)
        mask[order] = repeat
        return mask

    def fitted(lines, last):
        """The span in bulk: ``(sets, tags, residents)``, the touched
        lines by set, the last touched first, each set's untouched
        residents in their old order, and ``missed``, the indices of
        the lines no set held; None when some set cannot hold its
        residents and its new lines at once."""
        order = np.lexsort((-last, lines % num_sets))
        lines = lines[order]
        sets = lines % num_sets
        if (sets[ways_per_set:] == sets[:-ways_per_set]).any():
            return None  # a set is touched at more lines than it has ways
        set_ids = sets.tolist()
        tags = (lines // num_sets).tolist()
        held = []  # positions of the lines a set already held
        residents = []  # (tag list, residents the span does not touch)
        if any([l1_sets[index] for index in set_ids]):
            start = 0
            for stop in range(1, len(tags) + 1):
                if stop < len(tags) and set_ids[stop] == set_ids[start]:
                    continue
                ways = l1_sets[set_ids[start]]
                if ways:
                    new = tags[start:stop]
                    held += [at for at in range(start, stop)
                             if tags[at] in ways]
                    kept = [tag for tag in ways if tag not in new]
                    if len(new) + len(kept) > ways_per_set:
                        return None
                    residents.append((ways, kept))
                start = stop
        return (set_ids, tags, residents), (np.delete(order, held) if held
                                            else order)

    def walk(run, phases: list) -> None:
        """Replay the span access by access: way-0 hits (proven by a
        sort) in bulk, the rest through ``resolve`` in thread-major
        order."""
        cycles = run.out
        hits = 0
        rest = []  # (threads, addresses) that must walk the tag lists
        for entries in phases:
            for threads, addresses in _thread_major(_rows(entries),
                                                    run.block_bounds):
                mru = way0_hits(addresses)
                hits += _cnz(mru)
                cycles += np.bincount(
                    threads[mru], minlength=len(cycles)) * cost_l1
                np.logical_not(mru, out=mru)
                rest.append((threads[mru], addresses[mru]))
        l1_stats.hits += hits
        counts["l1"] += hits
        for threads, addresses in rest:
            np.add.at(cycles, threads,
                      [resolve(address) for address in addresses.tolist()])

    def commit(run: BlockRun, global_shift: int, shared_shift: int) -> float:
        """Validate the finished span, replay its global accesses
        through the caches and return its summed warp cycles.

        Raises :class:`Bail` before touching any cache state."""
        run.phase()
        cycles = run.out
        width = len(cycles)
        for entries in run.sphases:
            stores = _phase_stores(entries, shared_shift)
            if stores is not None and stores.touched_by_others(
                    *_logged(entries)):
                raise Bail("cross-thread shared access in one phase")
        phases = [entries for entries in run.gphases if entries]
        accesses = np.zeros(width, dtype=_I8)
        seen = _Touches(num_sets * ways_per_set, run.logged + 1)
        for number, entries in enumerate(phases):
            stores = _phase_stores(entries, global_shift)
            position = 0
            for part, threads, addresses in _chunks(entries):
                near = stores and stores.near(part)
                if near and addresses.ndim > 1:
                    # Trip entries: the loads whose own bounds meet.
                    near = [load for load in range(addresses.shape[1])
                            if any(stores.meets(*entry[5][load])
                                   for entry in near)]
                    near = near and (threads, addresses[:, near])
                elif near:
                    near = ((threads, addresses) if len(near) == len(part)
                            else _logged(near))
                if near and stores.touched_by_others(*near):
                    raise Bail("cross-thread global access in one phase")
                if addresses.ndim > 1:
                    accesses[threads] += addresses.size // len(threads)
                else:
                    accesses += np.bincount(threads, minlength=width)
                seen.add(threads, addresses // line_bytes if line_shift is None
                         else addresses >> line_shift, number * width,
                         position)
                position += addresses.size
        touched = seen.result()
        plan = None if touched is None else fitted(touched[0], touched[2])
        # Nothing can fail from here on: the caches may change.
        if plan is None:
            walk(run, phases)
        else:
            # No set overflows, so nothing is evicted: a line's first
            # touch misses if no set held it, every other access hits,
            # and the L2 sees those misses in thread-major order.
            lines, first, _ = touched
            ways_after, missed = plan
            missed = missed[np.argsort(first[missed])]
            hits = int(accesses.sum()) - len(missed)
            l1_stats.hits += hits
            l1_stats.misses += len(missed)
            counts["l1"] += hits
            cycles += accesses * cost_l1
            if len(missed):
                np.add.at(cycles, first[missed] // seen.scale % width,
                          [resolve_l2(line) - cost_l1
                           for line in lines[missed].tolist()])
            set_ids, tags, residents = ways_after
            for ways, _ in residents:
                ways.clear()
            for index, tag in zip(set_ids, tags):
                l1_sets[index].append(tag)
            for ways, kept in residents:
                ways += kept
        # A warp runs in lockstep: it costs its slowest lane.
        return float(int(np.maximum.reduceat(cycles, run.warp_starts).sum()))

    return commit


# --------------------------------------------------------------------------
# One device's block engine
# --------------------------------------------------------------------------


#: Lane geometries one runtime keeps. The key is tenant-chosen (block
#: shape and span: tens of thousands of combinations, up to ~90 KB
#: each), so the table is emptied when full rather than left to grow;
#: LeNet training uses 13, and building one costs less than a pass.
GEOMETRY_SLOTS = 32


class BlockRuntime:
    """What one executor needs to run block functions: their globals
    (bound to its memory), the commit step (bound to its caches) and
    the rollback."""

    def __init__(self, memory, hierarchy, resolve, resolve_l2,
                 cost_l1: int, warp_size: int):
        helpers, self._rollback = make_block_memory_helpers(memory)
        #: Globals of this device's block functions.
        self.env = {**VALUE_ENV, **helpers}
        self._commit = make_commit(hierarchy, resolve, resolve_l2, cost_l1)
        self._warp_size = warp_size
        self._geometry: dict[tuple, tuple] = {}

    def run(self, engine: tuple, compiled, block_ids: list, grid, block,
            params):
        """One pass over the blocks ``block_ids`` of a launch (more
        than one only for a kernel without ``.shared`` and ``bar``):
        ``(warp cycles, instructions, loads, stores)`` summed over
        them, or None when the attempt was given up - global memory is
        then as it was before it and no cache state has moved."""
        block_fn, exits, (global_shift, shared_shift) = engine
        key = (block, len(block_ids))
        geometry = self._geometry.get(key)
        if geometry is None:
            if len(self._geometry) >= GEOMETRY_SLOTS:
                self._geometry.clear()
            geometry = self._geometry[key] = lane_geometry(
                block, self._warp_size, len(block_ids))
        ctaid = span_ctaid(block_ids, grid, block[0] * block[1] * block[2])
        run = BlockRun(geometry, ctaid, grid, block,
                       bytearray(max(compiled.shared_bytes, 1)), exits)
        try:
            with np.errstate(**ERRSTATE):
                instructions, loads, stores = block_fn(
                    run, params, compiled.global_symbols)
                warp_cycles = self._commit(run, global_shift, shared_shift)
        except GIVE_UP:
            # The executor re-runs the blocks from clean memory, one
            # at a time, and a single block on the per-thread JIT,
            # which owns the outcome.
            self._rollback(run)
            return None
        return warp_cycles, instructions, loads, stores
