#!/usr/bin/env python3
"""Roaming: a three-cell wireless WAN with inter-cell e-mail and handoff.

Builds the paper's full system model (Section 2.2): three cells whose
base stations are joined by a wired point-to-point backbone.  Data
subscribers exchange e-mails across cells -- uplink at the source cell,
backbone hop, downlink at the destination cell -- and one subscriber
roams across all three cells mid-run, re-registering through each new
cell's contention slots while its uplink queue travels along.

Run::

    python examples/roaming.py
"""

from repro.core.config import CellConfig
from repro.network import MultiCellConfig, build_network
from repro.phy import timing


def main() -> None:
    config = MultiCellConfig(
        num_cells=3,
        cell=CellConfig(num_data_users=6, num_gps_users=2,
                        load_index=0.0,  # the network generates traffic
                        cycles=220, warmup_cycles=20, seed=6),
        load_index=0.4,
        inter_cell_fraction=0.6,
        backbone_latency=0.005,  # 5 ms wired hop
        seed=6)
    net = build_network(config)

    roamer = net.cells[0].data_users[0]
    print(f"roamer: {roamer.name} (EIN {roamer.ein:#06x})")
    itinerary = [(1, 60), (2, 120), (0, 180)]
    for cell_index, cycle in itinerary:
        net.handoff(roamer.ein, cell_index,
                    at_time=cycle * timing.CYCLE_LENGTH)

    stats = net.run()

    print()
    print("network-level results")
    print("---------------------")
    print(f"messages routed            : {stats.messages_routed}")
    print(f"  terminated at local BS   : "
          f"{stats.messages_routed - stats.messages_delivered_local - stats.messages_forwarded}")
    print(f"  delivered within cell    : {stats.messages_delivered_local}")
    print(f"  forwarded over backbone  : {stats.messages_forwarded}")
    print(f"buffered awaiting handoff  : "
          f"{stats.messages_buffered_for_registration}")
    print(f"end-to-end delay           : mean "
          f"{stats.end_to_end_delay.mean:.1f} s, max "
          f"{stats.end_to_end_delay.max:.1f} s "
          f"({stats.end_to_end_delay.count} messages)")
    print(f"handoffs completed         : {stats.handoffs_completed}")
    print(f"backbone                   : "
          f"{net.backbone.total_items} messages, "
          f"{net.backbone.total_bytes} bytes")
    print()
    print("per-cell results")
    print("----------------")
    for index, cell in enumerate(net.cells):
        s = cell.stats
        print(f"cell {index}: uplink packets {s.data_packets_delivered:4d}, "
              f"registrations {s.registrations_completed}, "
              f"GPS misses {s.gps_deadline_misses}, "
              f"radio violations {int(s.radio_violations)}")
    print()
    print(f"roamer finished in cell "
          f"{net.directory[roamer.ein]} with state "
          f"{roamer.state!r} (uid {roamer.uid})")


if __name__ == "__main__":
    main()
