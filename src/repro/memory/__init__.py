"""Off-chip memory system models.

Contains the DRAM parameters (200 cycles for the first 32 bytes, 3
cycles for each additional 32 bytes, Table 1), the L2/memory bus model
used for bandwidth accounting (Figure 12), and the 128-entry circular
prefetch request queue described in Section 5 of the paper.
"""

from repro.memory.dram import DRAMConfig
from repro.memory.bus import BusConfig, BusModel, TrafficCategory
from repro.memory.request_queue import PrefetchRequest, PrefetchRequestQueue

__all__ = [
    "BusConfig",
    "BusModel",
    "DRAMConfig",
    "PrefetchRequest",
    "PrefetchRequestQueue",
    "TrafficCategory",
]
