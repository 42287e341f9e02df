"""Fault-tolerance primitives for the live telemetry path.

The paper assumes every machine reports ~100 metrics every 15-minute
epoch, but machines *in crisis* are exactly the machines whose telemetry
path is most likely to fail.  This module provides the plumbing a real
deployment needs to keep the fingerprinting pipeline useful while the
system under observation is degrading:

* :class:`AgentHealthTracker` — per-machine heartbeat bookkeeping with a
  circuit breaker: an agent that misses ``dead_after`` consecutive epochs
  is declared dead and excluded from the expected fleet until it reports
  again (which closes the breaker);
* :class:`RetryPolicy` — exponential backoff with jitter for report
  delivery, deterministic under a seeded generator so tests and replays
  reproduce exactly;
* :class:`QuorumPolicy` — the rule deciding whether a partial epoch
  (some machines silent) is still summarizable, shared by the exact and
  sketch aggregation paths so they degrade identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

#: Agent health states, in order of degradation.
HEALTHY = "healthy"
STALE = "stale"
DEAD = "dead"

T = TypeVar("T")

#: Columns of :meth:`AgentHealthTracker.to_arrays`'s counter matrix.
HEALTH_COLUMNS = ("misses", "last", "trips", "reported")


@dataclass(frozen=True)
class QuorumPolicy:
    """When is a partial epoch still summarizable?

    A quorum requires at least ``min_count`` reports and, when the fleet
    size is known, at least ``min_fraction`` of the fleet.  Below quorum
    the epoch's quantiles are meaningless (quantiles of a biased sliver of
    the fleet) and the aggregator emits NaN instead of a summary.
    """

    min_fraction: float = 0.5
    min_count: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError("min_fraction must lie in [0, 1]")
        if self.min_count < 0:
            raise ValueError("min_count must be non-negative")

    def met(self, n_reporting: int, fleet_size: Optional[int] = None) -> bool:
        if n_reporting < self.min_count:
            return False
        if fleet_size is not None and fleet_size > 0:
            return n_reporting >= self.min_fraction * fleet_size
        return True


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for report delivery.

    Delays grow geometrically from ``base_delay`` by ``multiplier`` per
    attempt, capped at ``max_delay``; each delay is then jittered
    uniformly in ``[1 - jitter, 1 + jitter]`` so a fleet of agents
    retrying after a shared outage does not thundering-herd the
    aggregator.  All randomness comes from the caller's generator — or,
    when ``seed`` is set, from the policy's own seeded generator — so
    tests and chaos replays reproduce the exact delay sequence.
    """

    max_attempts: int = 5
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    #: When set, jitter draws come from a per-policy generator seeded
    #: here whenever the caller passes no ``rng`` — the serving
    #: supervisor and chaos tests use this for reproducible schedules.
    #: ``None`` (the default) keeps the historical behavior: no ``rng``
    #: means no jitter.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")

    def _seeded_rng(self) -> Optional[np.random.Generator]:
        """The policy's own jitter generator (lazy; frozen-safe)."""
        if self.seed is None:
            return None
        rng = self.__dict__.get("_rng")
        if rng is None:
            rng = np.random.default_rng(self.seed)
            object.__setattr__(self, "_rng", rng)
        return rng

    def backoff(self, attempt: int,
                rng: Optional[np.random.Generator] = None) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        delay = min(self.base_delay * self.multiplier ** attempt,
                    self.max_delay)
        if rng is None:
            rng = self._seeded_rng()
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return float(delay)

    def call(
        self,
        fn: Callable[[], T],
        rng: Optional[np.random.Generator] = None,
        sleep: Optional[Callable[[float], None]] = None,
        retry_on: tuple = (Exception,),
    ) -> T:
        """Run ``fn`` with retries; re-raises after the final attempt.

        ``sleep`` is injectable so tests (and simulated time) can observe
        the backoff schedule without waiting it out.
        """
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if attempt + 1 >= self.max_attempts:
                    raise
                if sleep is not None:
                    sleep(self.backoff(attempt, rng))
        raise last  # unreachable; satisfies type checkers


@dataclass
class _AgentState:
    last_report_epoch: Optional[int] = None
    consecutive_misses: int = 0
    reported_this_epoch: bool = False
    trips: int = 0  # times the circuit breaker opened


class AgentHealthTracker:
    """Heartbeat and circuit-breaker state for every agent in the fleet.

    Call :meth:`observe_report` whenever an agent's report arrives and
    :meth:`close_epoch` once per epoch; agents silent for ``dead_after``
    consecutive epochs trip their circuit breaker and are counted out of
    the expected fleet (so one crashed machine does not permanently drag
    coverage below quorum).  A report from a dead agent closes the breaker
    immediately.
    """

    def __init__(
        self,
        machine_ids: Sequence[str],
        dead_after: int = 4,
        stale_after: int = 1,
    ):
        if not machine_ids:
            raise ValueError("need at least one machine")
        if dead_after < 1 or stale_after < 1:
            raise ValueError("dead_after and stale_after must be >= 1")
        if stale_after > dead_after:
            raise ValueError("stale_after must not exceed dead_after")
        self.dead_after = dead_after
        self.stale_after = stale_after
        self._agents: Dict[str, _AgentState] = {
            mid: _AgentState() for mid in machine_ids
        }

    def __contains__(self, machine_id: str) -> bool:
        return machine_id in self._agents

    def to_arrays(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Every agent's counters as columns, in admission order.

        The serving tenant's checkpoint form, two arrays:
        ``<prefix>ids``, the machine ids as a UTF-8 JSON list (so any id
        round-trips exactly), and ``<prefix>counters``, an int64 matrix
        with one row per agent and the columns :data:`HEALTH_COLUMNS`:
        consecutive misses, last reported epoch (-1 for none), breaker
        trips, and whether it reported this epoch (0/1).
        ``dead_after`` and ``stale_after`` are not stored.
        """
        ids = json.dumps(list(self._agents), separators=(",", ":"))
        counters = np.array(
            [
                (s.consecutive_misses,
                 -1 if s.last_report_epoch is None else s.last_report_epoch,
                 s.trips, s.reported_this_epoch)
                for s in self._agents.values()
            ],
            dtype=np.int64,
        ).reshape(-1, len(HEALTH_COLUMNS))
        return {
            f"{prefix}ids": np.frombuffer(ids.encode("utf-8"), np.uint8),
            f"{prefix}counters": counters,
        }

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], prefix: str = ""
    ) -> "AgentHealthTracker":
        """The tracker :meth:`to_arrays` wrote, with default thresholds.

        Raises ``ValueError`` when the ids and counters do not line up.
        """
        ids = json.loads(bytes(arrays[f"{prefix}ids"]).decode("utf-8"))
        counters = arrays[f"{prefix}counters"]
        if (
            not isinstance(ids, list)
            or counters.shape != (len(ids), len(HEALTH_COLUMNS))
        ):
            raise ValueError("agent-health ids and counters do not line up")
        tracker = cls(ids)
        if tracker.n_agents != len(ids):
            raise ValueError("agent-health ids repeat")
        for state, (misses, last, trips, reported) in zip(
            tracker._agents.values(), counters.tolist()
        ):
            state.consecutive_misses = misses
            state.last_report_epoch = None if last < 0 else last
            state.trips = trips
            state.reported_this_epoch = bool(reported)
        return tracker

    @classmethod
    def from_dict(cls, data: Dict[str, dict]) -> "AgentHealthTracker":
        """A tracker from the JSON map older tenant checkpoints hold.

        Keyed by machine id in admission order, each agent's ``misses``,
        ``last`` (last reported epoch or ``None``), ``trips`` and
        ``reported``; a missing ``reported`` (older still) reads as
        ``False``.  Default thresholds.
        """
        tracker = cls(list(data))
        for mid, state in data.items():
            agent = tracker._agents[mid]
            agent.consecutive_misses = int(state["misses"])
            agent.last_report_epoch = state["last"]
            agent.trips = int(state["trips"])
            agent.reported_this_epoch = bool(state.get("reported", False))
        return tracker

    def add_agent(self, machine_id: str) -> None:
        """Admit a machine discovered after construction (idempotent).

        The serving tier learns a tenant's fleet from the reports
        themselves, so machines join the expected fleet on first
        contact instead of being declared up front.
        """
        if machine_id not in self._agents:
            self._agents[machine_id] = _AgentState()

    def observe_report(self, machine_id: str, epoch: int) -> None:
        """An agent delivered its report for the current epoch."""
        try:
            state = self._agents[machine_id]
        except KeyError:
            raise KeyError(f"unknown machine {machine_id!r}") from None
        state.last_report_epoch = epoch
        state.consecutive_misses = 0
        state.reported_this_epoch = True

    def close_epoch(self, epoch: int) -> List[str]:
        """End the epoch; silent agents accrue a miss.  Returns newly-dead."""
        newly_dead: List[str] = []
        for mid, state in self._agents.items():
            if state.reported_this_epoch:
                state.reported_this_epoch = False
                continue
            was_dead = state.consecutive_misses >= self.dead_after
            state.consecutive_misses += 1
            if not was_dead and state.consecutive_misses >= self.dead_after:
                state.trips += 1
                newly_dead.append(mid)
        return newly_dead

    def status(self, machine_id: str) -> str:
        state = self._agents[machine_id]
        if state.consecutive_misses >= self.dead_after:
            return DEAD
        if state.consecutive_misses >= self.stale_after:
            return STALE
        return HEALTHY

    def staleness(self, machine_id: str) -> int:
        """Consecutive epochs the agent has been silent."""
        return self._agents[machine_id].consecutive_misses

    def counts(self) -> Tuple[int, int]:
        """``(n_stale, n_dead)`` from one pass over the agents."""
        stale = dead = 0
        stale_after, dead_after = self.stale_after, self.dead_after
        for state in self._agents.values():
            misses = state.consecutive_misses
            if misses >= dead_after:
                dead += 1
            elif misses >= stale_after:
                stale += 1
        return stale, dead

    @property
    def n_agents(self) -> int:
        return len(self._agents)

    @property
    def n_healthy(self) -> int:
        stale, dead = self.counts()
        return self.n_agents - stale - dead

    @property
    def n_stale(self) -> int:
        return self.counts()[0]

    @property
    def n_dead(self) -> int:
        return self.counts()[1]

    @property
    def expected_fleet(self) -> int:
        """Agents currently expected to report (breaker not open)."""
        return self.n_agents - self.n_dead

    def dead_agents(self) -> List[str]:
        return [mid for mid in self._agents if self.status(mid) == DEAD]

    def stale_agents(self) -> List[str]:
        return [mid for mid in self._agents if self.status(mid) == STALE]


__all__ = [
    "AgentHealthTracker",
    "DEAD",
    "HEALTHY",
    "HEALTH_COLUMNS",
    "QuorumPolicy",
    "RetryPolicy",
    "STALE",
]
