"""The admission service's flush oracle: whole micro-batches scored exactly.

``FlushOracleServer`` is an :class:`~repro.service.AdmissionServer` whose
flush scores its micro-batch as the service once did: one
:meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.decide_batch`
pass, FLC1 and FLC2 both exact over the batch, against the flush-instant
occupancy snapshot, then greedy admission while bandwidth lasts.  The
server answers each request through
:meth:`~repro.cac.facs.system.FuzzyAdmissionControlSystem.verdict` at that
snapshot from the correction value ``submit`` computed, so the two must
agree on every decision and every report byte
(``tests/service/test_flush_verdicts.py``).
"""

from __future__ import annotations

import heapq

from repro.service import ADMITTED, REJECTED, AdmissionServer, ServiceDecision
from repro.service.server import FLUSH_DEADLINE, FLUSH_SIZE, ServiceBatchRecord

__all__ = ["FlushOracleServer"]


class FlushOracleServer(AdmissionServer):
    """An admission server whose flush scores with ``decide_batch``."""

    def _flush(self, reason: str) -> None:
        if self._deadline_task is not None:
            self._deadline_task.cancel()
            self._deadline_task = None
        self._generation += 1
        now = self._clock.now()

        batch = []
        while self._pending and len(batch) < self._config.max_batch:
            batch.append(self._pending.popleft())

        while self._departures and self._departures[0][0] <= now:
            self._release_next_departure()

        occupancy_before = self._station.used_bu
        decision = self._controller.decide_batch(
            [pending.call for pending in batch], self._station, now
        )
        admitted_in_batch = 0
        batch_index = self._batch_count
        for pending, scored_ok in zip(batch, decision.accepted):
            call = pending.call
            accepted = bool(scored_ok) and self._station.can_fit(call.bandwidth_units)
            if accepted:
                self._station.allocate(call)
                call.admit(now, self._station.station_id)
                self._controller.on_admitted(call, self._station, now)
                heapq.heappush(
                    self._departures,
                    (now + call.holding_time_s, call.call_id, call),
                )
                self._admitted += 1
                admitted_in_batch += 1
                self._accepted_bu += call.bandwidth_units
                self._peak_occupancy = max(self._peak_occupancy, self._station.used_bu)
            else:
                call.block(now, self._station.station_id)
                self._rejected += 1
            self._latencies_s.append(now - pending.enqueued_at)
            self._last_decided_at = now
            if not pending.future.done():
                pending.future.set_result(
                    ServiceDecision(
                        call_id=call.call_id,
                        outcome=ADMITTED if accepted else REJECTED,
                        enqueued_at_s=pending.enqueued_at,
                        decided_at_s=now,
                        batch_index=batch_index,
                    )
                )

        self._batch_count += 1
        if reason == FLUSH_SIZE:
            self._size_flushes += 1
        elif reason == FLUSH_DEADLINE:
            self._deadline_flushes += 1
        else:
            self._close_flushes += 1
        if self._collect_batches:
            self._batches.append(
                ServiceBatchRecord(
                    index=batch_index,
                    flushed_at_s=now,
                    size=len(batch),
                    admitted=admitted_in_batch,
                    reason=reason,
                    occupancy_before_bu=occupancy_before,
                    occupancy_after_bu=self._station.used_bu,
                )
            )
        if self._pending and not self._closed:
            self._arm_deadline(
                self._pending[0].enqueued_at + self._config.max_wait_s,
                self._generation,
            )
