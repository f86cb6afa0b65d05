"""The open-loop driver: a virtual-time event loop over sessions.

The driver replays a seeded arrival trace of full tenant sessions
against a live GuardianServer and accounts for latency-under-load with
a deterministic multi-slot queueing model on the virtual cycle axis:

- **Open loop.** Arrival instants come from the trace alone; a slow
  server makes the queue grow, it never slows the offered load. This
  is what distinguishes the harness from every closed-loop benchmark
  in ``benchmarks/`` (fixed tenants, fixed iterations).
- **Service model.** ``capacity`` slots stand for parallel dispatch
  lanes. Each admitted session is executed *for real* against the
  server (every modelled cost is the closed-loop cost); its measured
  host-cycle demand becomes the slot's service time. FCFS across
  slots: ``start = max(arrival, earliest slot free)``, ``latency =
  start + demand - arrival``.
- **Backpressure.** With ``admission_queue_depth`` set, an arrival
  that finds that many sessions already waiting is **shed**: it
  executes nothing — zero calls, zero cycles, zero bounds-table
  traffic — so surviving tenants are unperturbed by construction. A
  server-side :class:`~repro.errors.AdmissionRejected` (the
  ``max_resident_tenants`` gate) is recorded as a rejection, the same
  zero-perturbation contract. ``None`` (the default) never sheds.
- **Autoscaling.** With ``autoscale`` on, every ``control_interval``
  virtual cycles the driver evaluates each class's windowed p99
  against its SLO and :func:`p99_breach_capacity` widens or narrows
  the slot count between ``min_capacity`` and ``max_capacity``. Off
  by default.

Everything observes through the :mod:`repro.telemetry` registry
(sessions counter, latency histograms, capacity gauge); the driver
never charges a cycle to any modelled clock. With backpressure and
autoscaling off, the calls the driver issues are exactly the calls
the equivalent closed-loop script issues, in the same order — cycle
totals are bit-identical (pinned by a hypothesis property).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AdmissionRejected
from repro.loadgen.arrivals import Arrival, ArrivalProcess
from repro.loadgen.session import SessionSpec, SLOClass, run_session
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class LoadgenConfig:
    """Every knob of the open-loop harness. All backpressure and
    control-loop behaviour defaults **off**: a stock config is a plain
    replay whose cycle totals match the closed-loop equivalent."""

    #: Parallel service slots (modelled dispatch lanes).
    capacity: int = 1
    #: Bounded admission queue: an arrival finding this many waiting
    #: sessions is shed. ``None`` = unbounded (no shedding).
    admission_queue_depth: Optional[int] = None
    #: SLO control loop (off by default).
    autoscale: bool = False
    min_capacity: int = 1
    max_capacity: int = 8
    control_interval_cycles: float = 2_000_000.0
    #: Arrival-trace seed (forwarded to the process by the caller;
    #: recorded here so reports carry the full recipe).
    seed: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if (self.admission_queue_depth is not None
                and self.admission_queue_depth < 1):
            raise ValueError("admission_queue_depth must be >= 1 or None")
        if not 1 <= self.min_capacity <= self.max_capacity:
            raise ValueError("need 1 <= min_capacity <= max_capacity")
        if self.control_interval_cycles <= 0:
            raise ValueError("control_interval_cycles must be positive")


def p99_breach_capacity(window: dict, capacity: int) -> int:
    """The control loop's rule: widen on a p99 SLO breach, narrow when
    comfortably under.

    ``window`` maps class name to a dict with ``p99`` (modelled cycles,
    or ``None`` for an empty window) and ``slo`` (the class's p99
    target). If any class's windowed p99 exceeds its target, add one
    lane; if *every* class with traffic sits below half its target,
    remove one. Empty windows hold — no data is not evidence of
    headroom. Returns the new capacity, unclamped; a pure function of
    its arguments so modelled runs stay reproducible.
    """
    observed = [
        entry for entry in window.values()
        if entry.get("p99") is not None and entry.get("slo")
    ]
    if not observed:
        return capacity
    if any(entry["p99"] > entry["slo"] for entry in observed):
        return capacity + 1
    if all(entry["p99"] < 0.5 * entry["slo"] for entry in observed):
        return capacity - 1
    return capacity


@dataclass(frozen=True)
class SessionOutcome:
    """One arrival's fate on the virtual timeline."""

    index: int
    app_id: str
    slo_class: str
    arrival: float
    #: "completed", "shed" (bounded queue) or "rejected" (server gate).
    outcome: str
    start: float = 0.0
    finish: float = 0.0
    host_cycles: float = 0.0

    @property
    def latency(self) -> float:
        """Queue wait + service, in virtual cycles (0.0 when shed)."""
        if self.outcome != "completed":
            return 0.0
        return self.finish - self.arrival


@dataclass
class LoadReport:
    """Everything one run produced, ready for the SLO evaluator."""

    outcomes: list[SessionOutcome] = field(default_factory=list)
    #: (tick instant, capacity after the tick) — one entry per control
    #: interval when autoscaling is on, plus the initial capacity.
    capacity_timeline: list[tuple[float, int]] = field(default_factory=list)
    #: Per control window: {class: {"p99": float|None, "slo": float,
    #: "breached": bool}} — the time-above-SLO denominator.
    windows: list[dict] = field(default_factory=list)
    telemetry: Optional[Telemetry] = None

    @property
    def makespan_cycles(self) -> float:
        """Last completion instant on the virtual axis."""
        return max((o.finish for o in self.outcomes
                    if o.outcome == "completed"), default=0.0)

    @property
    def horizon_cycles(self) -> float:
        """The observed span: last completion or last arrival,
        whichever is later (a fully-shed run still has a horizon)."""
        last_arrival = max((o.arrival for o in self.outcomes), default=0.0)
        return max(self.makespan_cycles, last_arrival)


class OpenLoopDriver:
    """Replays an arrival trace of sessions against one server."""

    def __init__(self, server, config: LoadgenConfig | None = None,
                 classes: dict[str, SLOClass] | None = None,
                 telemetry: Optional[Telemetry] = None):
        self.server = server
        self.config = config or LoadgenConfig()
        self.classes = dict(classes or {})
        # SLO accounting lives in a telemetry registry: the server's
        # own spine when it has one (one deployment, one registry), a
        # private observation-only instance otherwise — the stock
        # server stays telemetry-free and bit-identical either way.
        self.telemetry = (
            telemetry
            or getattr(server, "telemetry", None)
            or Telemetry()
        )

    # -- the event loop -----------------------------------------------------------

    def run(self, process: ArrivalProcess, count: int,
            spec: SessionSpec | dict[str, SessionSpec] | None = None,
            mix: Optional[list[str]] = None) -> LoadReport:
        """Replay ``count`` sessions from ``process``.

        ``spec`` is one :class:`SessionSpec` for a homogeneous run, or
        a mapping class-name -> spec with ``mix`` giving the
        deterministic class rotation (round-robin over ``mix``; an
        explicit schedule beats hidden randomness for reproducibility).
        """
        arrivals = process.trace(count)
        schedule = self._schedule(arrivals, spec, mix)
        report = LoadReport(telemetry=self.telemetry)
        capacity = self.config.capacity
        report.capacity_timeline.append((0.0, capacity))
        slots = [0.0] * capacity
        heapq.heapify(slots)
        pending_starts: deque[float] = deque()
        window: dict[str, list[float]] = {}
        next_control = self.config.control_interval_cycles
        for arrival, cls, session_spec in schedule:
            now = arrival.at_cycles
            if self.config.autoscale:
                while now >= next_control:
                    capacity = self._control_tick(
                        report, window, slots, capacity, next_control
                    )
                    next_control += self.config.control_interval_cycles
            app_id = f"ld{arrival.index}"
            while pending_starts and pending_starts[0] <= now:
                pending_starts.popleft()
            depth = self.config.admission_queue_depth
            if depth is not None and len(pending_starts) >= depth:
                report.outcomes.append(SessionOutcome(
                    arrival.index, app_id, cls, now, "shed",
                ))
                self.telemetry.record_session(cls, "shed")
                continue
            try:
                result = run_session(self.server, app_id, session_spec)
            except AdmissionRejected:
                report.outcomes.append(SessionOutcome(
                    arrival.index, app_id, cls, now, "rejected",
                ))
                self.telemetry.record_session(cls, "rejected")
                continue
            free = heapq.heappop(slots)
            start = max(now, free)
            finish = start + result.host_cycles
            heapq.heappush(slots, finish)
            pending_starts.append(start)
            latency = finish - now
            report.outcomes.append(SessionOutcome(
                arrival.index, app_id, cls, now, "completed",
                start=start, finish=finish,
                host_cycles=result.host_cycles,
            ))
            target = self.classes.get(cls)
            self.telemetry.record_session(
                cls, "completed", latency_cycles=latency,
                within_slo=(target is not None
                            and latency <= target.p99_cycles),
            )
            window.setdefault(cls, []).append(latency)
        return report

    def _schedule(self, arrivals: list[Arrival], spec, mix):
        """(arrival, class name, spec) triples. For a mapping, the
        mapping key *is* the class — it wins over the spec's own
        ``slo_class`` so one spec shape can serve several classes."""
        if spec is None:
            spec = SessionSpec()
        if isinstance(spec, SessionSpec):
            return [(arrival, spec.slo_class, spec)
                    for arrival in arrivals]
        rotation = list(mix or sorted(spec))
        if not rotation:
            raise ValueError("class mix is empty")
        missing = [name for name in rotation if name not in spec]
        if missing:
            raise ValueError(f"mix names unknown classes: {missing}")
        return [
            (arrival, rotation[arrival.index % len(rotation)],
             spec[rotation[arrival.index % len(rotation)]])
            for arrival in arrivals
        ]

    # -- the SLO control loop -----------------------------------------------------

    def _control_tick(self, report: LoadReport, window: dict,
                      slots: list[float], capacity: int,
                      tick: float) -> int:
        """Evaluate one control window and resize.

        The window view hands the rule each class's exact windowed
        p99 (sorted-rank, not the histogram approximation — control
        decisions deserve the precise number) next to its SLO target.
        """
        view: dict[str, dict] = {}
        for name, target in self.classes.items():
            latencies = sorted(window.get(name, ()))
            p99 = (latencies[max(0, -(-len(latencies) * 99 // 100) - 1)]
                   if latencies else None)
            view[name] = {
                "p99": p99,
                "slo": target.p99_cycles,
                "breached": p99 is not None and p99 > target.p99_cycles,
            }
        report.windows.append(view)
        window.clear()
        decided = max(self.config.min_capacity,
                      min(self.config.max_capacity,
                          p99_breach_capacity(view, capacity)))
        while decided > capacity:
            # A widened lane comes up free at the tick instant.
            heapq.heappush(slots, tick)
            capacity += 1
        while decided < capacity and len(slots) > 1:
            # Narrowing retires the earliest-free lane: in-flight work
            # on the others finishes where it would have.
            heapq.heappop(slots)
            capacity -= 1
        self.telemetry.record_capacity(capacity)
        report.capacity_timeline.append((tick, capacity))
        return capacity
