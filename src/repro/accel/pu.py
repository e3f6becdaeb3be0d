"""Processing-unit state (paper §III, §V).

A PU owns a slot buffer (16 slot IDs), one ancestor buffer per slot, a
stealing buffer, and a single-issue scheduler port ("the Scheduler ...
schedules one valid embedding per cycle").  The simulator models the issue
port as a ``next_free`` resource timestamp, each slot as a
:class:`~repro.accel.scheduler.SlotContext` and work stealing as a
:class:`~repro.accel.scheduler.Stealer` over the slots' stacks.
"""

from __future__ import annotations

from .config import GramerConfig
from .scheduler import SlotContext, Stealer

__all__ = ["ProcessingUnit"]


class ProcessingUnit:
    """One GRAMER PU: slots, work stealing, issue port."""

    def __init__(self, index: int, config: GramerConfig) -> None:
        self.index = index
        self.config = config
        self.slots = [SlotContext(i) for i in range(config.slots_per_pu)]
        self.stealer = Stealer(
            index,
            [slot.stack for slot in self.slots],
            config.steal_victim_select == "random",
        )
        self.next_free = 0  # scheduler issue port availability (cycles)
        self.busy_slots = 0
