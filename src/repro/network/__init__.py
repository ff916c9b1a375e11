"""Multi-cell wireless WAN: backbone, inter-cell forwarding, handoff.

The paper's system model (Section 2.2): "the geographical area covered
by a wireless network is divided into overlapping cells ... the base
station is the central unit of the cell and is connected to one another
to form a wired point-to-point backbone network ... the base station
receives data packets from all mobile subscribers and forwards them to
their destinations."

This package builds that wide-area layer on top of the single-cell MAC:

* :mod:`repro.network.backbone` -- the wired point-to-point backbone:
  FIFO links with propagation latency and serialization bandwidth;
* :mod:`repro.network.multicell` -- the one multicell engine: a group
  of cells sharing one simulator, message-level inter-cell forwarding
  (uplink at the source cell -> backbone -> downlink at the destination
  cell), paging of not-yet-registered destinations, and handoff of data
  users and GPS units between cells (sign-off + re-registration, with
  the uplink queue carried over).  ``repro network`` runs it as a
  one-shard city; every ``repro city`` shard
  (:class:`repro.shard.shard.ShardSim`) is one.

The backbone operates at message granularity: the paper does not define
a wire format for the inter-BS network, so destination addressing is
simulation-level metadata (see DESIGN.md section 6).
"""

from repro.network.backbone import Backbone, BackboneLink
from repro.network.multicell import (
    MultiCellConfig,
    MultiCellNetwork,
    NetworkStats,
    build_network,
    run_network,
)

__all__ = [
    "Backbone",
    "BackboneLink",
    "MultiCellConfig",
    "MultiCellNetwork",
    "NetworkStats",
    "build_network",
    "run_network",
]
