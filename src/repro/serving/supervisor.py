"""Per-tenant supervision: restart with backoff, quarantine crash-loops.

The front door's graceful-degradation contract: one bad tenant never
takes down the service.  Each tenant runs behind a supervisor slot with
three states:

``RUNNING``
    records are dispatched to the tenant's :class:`~repro.serving.tenant.TenantRuntime`.
``RESTARTING``
    the engine crashed; requests are shed with an explicit
    ``retry_after`` until the backoff expires, then the next request
    triggers a recovery attempt (checkpoint restore + journal replay —
    the same proven path a process restart takes).
``QUARANTINED``
    ``max_restarts`` consecutive crashes — the classic *poison record*
    crash-loop, where journal-before-ack guarantees the crashing record
    is replayed on every recovery.  The tenant is parked (requests get
    a terminal ``quarantined`` error) until an operator clears it
    (:meth:`TenantSupervisor.clear_quarantine`); every other tenant
    keeps serving.  See ``docs/serving.md`` for the runbook.

Backoff delays come from :class:`repro.telemetry.reliability.RetryPolicy`
with the policy's *seeded* jitter, so a chaos run's restart schedule is
reproducible.  The clock and sleep are injectable for tests.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import ServingConfig
from repro.serving.fencing import FencingState, StaleFencingToken
from repro.serving.journal import JournalTornWrite
from repro.serving.tenant import APPLIED, TenantRuntime
from repro.telemetry.reliability import RetryPolicy

logger = logging.getLogger(__name__)

RUNNING = "running"
RESTARTING = "restarting"
QUARANTINED = "quarantined"

#: Terminal dispatch status of a fenced (superseded) node.
FENCED = "fenced"


@dataclass
class _TenantSlot:
    runtime: Optional[TenantRuntime] = None
    state: str = RUNNING
    crash_streak: int = 0
    restarts: int = 0  # lifetime successful recoveries
    next_retry_at: float = 0.0
    last_error: Optional[str] = None
    crash_log: List[str] = field(default_factory=list)


class TenantSupervisor:
    """Owns every tenant slot and the restart/quarantine policy.

    ``journal_hook_factory`` / ``fault_hook_factory`` take a tenant name
    and return the per-tenant chaos hooks (or ``None``); production runs
    pass neither.

    ``fencing`` (when serving behind a front door) threads the node's
    :class:`~repro.serving.fencing.FencingState` into every tenant
    journal, so a fenced node cannot append.  ``on_journaled`` is the
    replication tap: called with ``(tenant, records)`` immediately after
    a batch reaches disk, records carrying their assigned seqs — the
    hub fans these out to subscribed standbys.  ``retention_floor``
    maps a tenant name to the lowest seq a live subscriber still needs
    (or ``None``), pinning journal compaction.
    """

    def __init__(
        self,
        cfg: ServingConfig,
        root,
        clock: Callable[[], float] = time.monotonic,
        journal_hook_factory: Optional[Callable[[str], Optional[Callable]]] = None,
        fault_hook_factory: Optional[Callable[[str], Optional[Callable]]] = None,
        fencing: Optional[FencingState] = None,
        on_journaled: Optional[Callable[[str, List[dict]], None]] = None,
        retention_floor: Optional[Callable[[str], Optional[int]]] = None,
    ):
        self.cfg = cfg
        self.root = root
        self.clock = clock
        self.journal_hook_factory = journal_hook_factory
        self.fault_hook_factory = fault_hook_factory
        self.fencing = fencing
        self.on_journaled = on_journaled
        self.retention_floor = retention_floor
        self.policy = RetryPolicy(
            max_attempts=cfg.max_restarts,
            base_delay=cfg.restart_base_delay,
            max_delay=cfg.restart_max_delay,
            seed=cfg.seed,
        )
        self._slots: Dict[str, _TenantSlot] = {}

    # -- slot lifecycle ----------------------------------------------------

    def _hooks(self, tenant: str) -> Tuple[Optional[Callable], Optional[Callable]]:
        jh = (
            self.journal_hook_factory(tenant)
            if self.journal_hook_factory is not None else None
        )
        fh = (
            self.fault_hook_factory(tenant)
            if self.fault_hook_factory is not None else None
        )
        return jh, fh

    def _recover(self, tenant: str) -> TenantRuntime:
        jh, fh = self._hooks(tenant)
        floor = None
        if self.retention_floor is not None:
            floor = lambda t=tenant: self.retention_floor(t)  # noqa: E731
        return TenantRuntime.recover(
            tenant, self.cfg, self.root,
            journal_hook=jh, fault_hook=fh,
            fence_check=(
                self.fencing.check if self.fencing is not None else None
            ),
            retention_floor=floor,
        )

    def slot(self, tenant: str) -> _TenantSlot:
        """The slot for ``tenant``, recovering its runtime on first touch."""
        slot = self._slots.get(tenant)
        if slot is None:
            slot = _TenantSlot()
            self._slots[tenant] = slot
            try:
                slot.runtime = self._recover(tenant)
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                self._mark_crashed(tenant, slot, exc)
        return slot

    def peek(self, tenant: str) -> Optional[_TenantSlot]:
        """The slot for ``tenant`` if one exists — never creates one.

        Read-only paths (the ``state`` verb) use this so an arbitrary
        queried name cannot mint a tenant directory on disk; only
        journaled verbs create slots.
        """
        return self._slots.get(tenant)

    def tenants(self) -> List[str]:
        return sorted(self._slots)

    def adopt_existing(self) -> List[str]:
        """Recover every tenant directory found under the root (startup)."""
        import pathlib

        tenant_root = pathlib.Path(self.root) / "tenants"
        found = []
        if tenant_root.is_dir():
            for path in sorted(tenant_root.iterdir()):
                if path.is_dir():
                    self.slot(path.name)
                    found.append(path.name)
        return found

    # -- crash handling ----------------------------------------------------

    def _mark_crashed(
        self, tenant: str, slot: _TenantSlot, exc: BaseException
    ) -> None:
        if slot.runtime is not None:
            try:
                slot.runtime.close()
            except Exception:  # noqa: BLE001 — already crashing
                pass
        slot.runtime = None
        slot.crash_streak += 1
        slot.last_error = f"{type(exc).__name__}: {exc}"
        slot.crash_log.append(slot.last_error)
        if slot.crash_streak >= self.cfg.max_restarts:
            slot.state = QUARANTINED
            logger.error(
                "tenant %s quarantined after %d consecutive crashes: %s",
                tenant, slot.crash_streak, slot.last_error,
            )
        else:
            delay = self.policy.backoff(slot.crash_streak - 1)
            slot.state = RESTARTING
            slot.next_retry_at = self.clock() + delay
            logger.warning(
                "tenant %s crashed (streak %d), restart in %.3fs: %s",
                tenant, slot.crash_streak, delay, slot.last_error,
            )

    def clear_quarantine(self, tenant: str) -> None:
        """Operator override: give a quarantined tenant a fresh streak."""
        slot = self._slots.get(tenant)
        if slot is None or slot.state != QUARANTINED:
            raise KeyError(f"tenant {tenant!r} is not quarantined")
        slot.state = RESTARTING
        slot.crash_streak = 0
        slot.next_retry_at = self.clock()

    # -- dispatch ----------------------------------------------------------

    def _shed_payload(self, slot: _TenantSlot) -> Tuple[str, dict]:
        if slot.state == QUARANTINED:
            return "quarantined", {"detail": slot.last_error}
        return "shed", {
            "retry_after": max(slot.next_retry_at - self.clock(), 1e-3)
        }

    def _ensure_running(self, tenant: str, slot: _TenantSlot) -> bool:
        """Recover a RESTARTING slot whose backoff has expired."""
        if slot.state == RUNNING:
            return True
        if slot.state == QUARANTINED:
            return False
        if self.clock() < slot.next_retry_at:
            return False
        try:
            slot.runtime = self._recover(tenant)
        except JournalTornWrite:
            raise
        except Exception as exc:  # noqa: BLE001 — isolation boundary
            self._mark_crashed(tenant, slot, exc)
            return False
        slot.state = RUNNING
        slot.restarts += 1
        logger.info(
            "tenant %s recovered (restart %d)", tenant, slot.restarts
        )
        return True

    def dispatch_batch(
        self, tenant: str, records: List[dict]
    ) -> List[Tuple[str, dict]]:
        """Journal-then-apply a batch of validated records for one tenant.

        The durable path: records that will change state are journaled
        with **one** group-commit fsync (:meth:`WriteAheadJournal.append_many`),
        then applied in order.  Duplicates and out-of-order records are
        answered without touching disk.  Responses are ``(status,
        payload)`` pairs aligned with ``records``; shed responses carry
        ``retry_after``.  A tenant crash mid-batch sheds the rest of the
        batch (their journaled records replay on recovery, and the
        client's resends collapse into duplicate acks) — it never
        escapes to the caller.  :class:`~repro.serving.journal.JournalTornWrite`
        *does* escape: a torn append means this process must die.
        """
        if self.fencing is not None and self.fencing.fenced:
            # Superseded: this node must never journal (= ack) again.
            return [
                (FENCED, {"fence": self.fencing.epoch}) for _ in records
            ]
        slot = self.slot(tenant)
        if not self._ensure_running(tenant, slot):
            return [self._shed_payload(slot) for _ in records]
        runtime = slot.runtime
        # Classify against a *predicted* epoch cursor so a pipelined
        # batch (report e, close e, report e+1, ...) journals in one go.
        pred = runtime.next_epoch
        plans: List[str] = []
        to_journal: List[dict] = []
        for record in records:
            op = record["op"]
            if op == "diagnose":
                # diagnose is classified at *apply* time, after earlier
                # records in the batch have taken effect — a diagnose
                # referencing a crisis that a close_epoch in this same
                # pipelined batch detects must not be rejected against
                # the pre-batch library.  An unknown crisis becomes a
                # journaled no-op (idempotent on replay).
                plan = APPLIED
            else:
                plan = runtime.classify(record, next_epoch=pred)
                if plan == APPLIED and op == "close_epoch":
                    pred += 1
            plans.append(plan)
            if plan == APPLIED:
                to_journal.append(record)
        try:
            runtime.journal.append_many(to_journal)
        except JournalTornWrite:
            raise
        except StaleFencingToken:
            # Fenced between the check above and the append (a newer
            # epoch arrived on another connection): reject everything.
            return [
                (FENCED, {"fence": self.fencing.epoch}) for _ in records
            ]
        except OSError as exc:
            # Disk full: the batch was rolled back; shed every record
            # that needed the journal, answer the rest normally.
            logger.warning(
                "journal append failed for tenant %s: %s", tenant, exc
            )
            return [
                ("shed", {"retry_after": 0.5, "detail": "journal-error"})
                if plan == APPLIED
                else (plan, {"events": []})
                for plan in plans
            ]
        if self.on_journaled is not None and to_journal:
            # The journal stream is the replication stream: ship copies
            # (seqs now assigned) before applying, so a tenant crash
            # mid-apply cannot hide durably journaled records from the
            # standby — they replay identically on both sides.
            self.on_journaled(tenant, [dict(r) for r in to_journal])
        responses: List[Tuple[str, dict]] = []
        crashed = False
        for record, plan in zip(records, plans):
            # Report acks carry how many machine reports they covered
            # (1 for a single report), so clients can account
            # throughput without re-parsing.
            extra_fields = (
                {"n": len(record["machines"])}
                if record["op"] == "report_batch"
                else {}
            )
            if plan != APPLIED:
                responses.append((plan, {"events": [], **extra_fields}))
                continue
            if crashed:
                responses.append(self._shed_payload(slot))
                continue
            try:
                status, events = runtime.apply(record)
            except JournalTornWrite:
                raise
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                self._mark_crashed(tenant, slot, exc)
                crashed = True
                responses.append(self._shed_payload(slot))
                continue
            slot.crash_streak = 0
            responses.append(
                (
                    status,
                    {
                        "events": events,
                        "seq": record.get("seq"),
                        **extra_fields,
                    },
                )
            )
        return responses

    def dispatch(self, tenant: str, record: dict) -> Tuple[str, dict]:
        """Single-record convenience wrapper over :meth:`dispatch_batch`."""
        return self.dispatch_batch(tenant, [record])[0]

    # -- introspection / shutdown -----------------------------------------

    def stats(self) -> dict:
        out = {}
        for tenant, slot in sorted(self._slots.items()):
            out[tenant] = {
                "state": slot.state,
                "crash_streak": slot.crash_streak,
                "restarts": slot.restarts,
                "last_error": slot.last_error,
                "next_epoch": (
                    slot.runtime.next_epoch
                    if slot.runtime is not None else None
                ),
                "applied_seq": (
                    slot.runtime.applied_seq
                    if slot.runtime is not None else None
                ),
            }
        return out

    def checkpoint_all(self) -> None:
        """Graceful shutdown: snapshot every running tenant."""
        for tenant, slot in sorted(self._slots.items()):
            if slot.runtime is not None:
                try:
                    slot.runtime.checkpoint()
                except Exception as exc:  # noqa: BLE001
                    logger.warning(
                        "checkpoint of tenant %s failed on shutdown: %s",
                        tenant, exc,
                    )

    def close(self) -> None:
        for slot in self._slots.values():
            if slot.runtime is not None:
                slot.runtime.close()


__all__ = [
    "FENCED",
    "QUARANTINED",
    "RESTARTING",
    "RUNNING",
    "TenantSupervisor",
]
