"""Swing modulo scheduling for the unified (single-cluster) machine.

This is the paper's baseline substrate: the SMS instruction scheduler
(Llosa et al.) used both for the hypothetical unified architecture and as
the per-cluster scheduling discipline inside the clustered algorithms.  On
a one-cluster machine no communications ever arise, so the placement
engine reduces to the classic SMS scan.
"""

from __future__ import annotations

from ..arch.cluster import MachineConfig
from ..errors import ConfigError
from .base import SchedulerBase
from .engine import Placement, PlacementEngine
from .sms import sms_order


class UnifiedScheduler(SchedulerBase):
    """SMS on a single-cluster machine."""

    name = "unified-sms"

    def __init__(self, config: MachineConfig):
        if config.is_clustered:
            raise ConfigError(
                f"UnifiedScheduler needs a 1-cluster machine, got {config.name!r} "
                f"with {config.n_clusters} clusters"
            )
        super().__init__(config)

    def _place_all(self, engine: PlacementEngine) -> bool:
        for node in sms_order(engine.graph):
            placement = engine.find_placement(node, cluster=0)
            if not isinstance(placement, Placement):
                return False
            engine.commit(placement)
        return True
