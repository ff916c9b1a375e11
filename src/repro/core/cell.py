"""Cell orchestration: wire everything together and run a scenario.

``run_cell(config)`` builds one cell -- base station, channels, data
subscribers, GPS units, workload generators -- runs it for
``config.cycles`` notification cycles, and returns the populated
:class:`~repro.metrics.CellStats` (plus the live objects, for tests that
want to poke at internals, via ``run_cell_detailed``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.base_station import BaseStation
from repro.core.config import CellConfig
from repro.core.packets import PAYLOAD_BYTES, ForwardPacket
from repro.core.gps_unit import GpsSubscriber
from repro.core.subscriber import ACTIVE, DataSubscriber
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantMonitor
from repro.metrics import CellStats
from repro.phy import timing
from repro.phy.channel import ForwardChannel, Link, ReverseChannel
from repro.phy.errors import (
    ErrorModel,
    GilbertElliottModel,
    IndependentSymbolErrors,
    OutageModel,
    PerfectChannelModel,
)
from repro.sim import RandomStreams, Simulator
from repro.traffic.messages import (
    Message,
    PoissonMessageSource,
    interarrival_for_load,
    make_size_distribution,
)

#: EIN blocks for generated subscribers (arbitrary, disjoint).
DATA_EIN_BASE = 0x1000
GPS_EIN_BASE = 0x2000
#: EIN block stride between the cells of a multicell network or city:
#: cell ``c`` is built with ``ein_offset = c * EIN_CELL_STRIDE``.  A
#: stride wider than both bases plus any index keeps every cell's data
#: *and* GPS blocks disjoint network-wide, at the cost of EINs beyond
#: the paper's 16-bit space (multicell runs are logical-object only, so
#: nothing packs them; ``full_fidelity`` would).
EIN_CELL_STRIDE = 0x4000


def _make_error_model(config: CellConfig,
                      rng: random.Random) -> ErrorModel:
    if config.error_model == "perfect":
        return PerfectChannelModel()
    if config.error_model == "outage":
        return OutageModel(config.outage_loss)
    if config.error_model == "iid":
        return IndependentSymbolErrors(config.symbol_error_rate)
    if config.error_model == "ge":
        return GilbertElliottModel()
    raise ValueError(f"unknown error model {config.error_model!r}")


def _make_link(config: CellConfig, streams: "RandomStreams",
               stream_name: str) -> Link:
    return Link(_make_error_model(config, streams[stream_name]),
                streams[stream_name],
                full_fidelity=config.full_fidelity)


def _uplink_workload(config: CellConfig):
    """(size distribution, per-user mean interarrival) for the uplink."""
    sizes = make_size_distribution(
        config.message_size, config.fixed_message_bytes,
        config.uniform_low, config.uniform_high)
    interarrival = interarrival_for_load(
        config.load_index, config.num_data_users,
        sizes.mean_mac_bytes(PAYLOAD_BYTES),
        timing.CYCLE_LENGTH, config.data_slots_per_cycle,
        PAYLOAD_BYTES)
    return sizes, interarrival


@dataclass
class CellRun:
    """Everything a finished simulation exposes."""

    config: CellConfig
    stats: CellStats
    sim: Simulator
    base_station: BaseStation
    data_users: List[DataSubscriber]
    gps_units: List[GpsSubscriber]
    injector: Optional[FaultInjector] = None
    monitor: Optional[InvariantMonitor] = None
    #: The name streams were derived from; kept so callers (the service
    #: mode's runtime joins) can mint new deterministic per-subscriber
    #: streams after construction.
    streams: Optional[RandomStreams] = None
    #: Live uplink / downlink Poisson sources, in subscriber order.
    #: ``mean_interarrival`` is mutable, so a caller may re-dial the
    #: offered load mid-run (applied to draws after the change).
    sources: List[PoissonMessageSource] = field(default_factory=list)
    forward_sources: List[PoissonMessageSource] = \
        field(default_factory=list)


def build_cell(config: CellConfig,
               sim: "Simulator | None" = None,
               streams: "RandomStreams | None" = None,
               ein_offset: int = 0,
               name_prefix: str = "") -> CellRun:
    """Construct (but do not run) a cell simulation.

    ``sim``/``streams`` may be shared across cells (multi-cell networks
    build several cells on one simulator); ``ein_offset`` keeps EINs
    globally unique in that case.
    """
    sim = sim if sim is not None else Simulator()
    streams = streams if streams is not None \
        else RandomStreams(config.seed)
    stats = CellStats(
        cycle_length=timing.CYCLE_LENGTH,
        warmup_until=config.warmup_until,
        data_slots_per_cycle=config.data_slots_per_cycle,
        payload_bytes_per_slot=PAYLOAD_BYTES)
    forward = ForwardChannel(sim, timing.FORWARD_SYMBOL_RATE)
    reverse = ReverseChannel(sim, timing.REVERSE_SYMBOL_RATE)
    base_station = BaseStation(sim, config, forward, reverse, stats,
                               streams["base-station"])

    entry_rng = streams["entry"]
    entry_clock = [0.0]

    def entry_time() -> float:
        """Next subscriber power-on time.

        'poisson' mode models a true Poisson arrival process: each entry
        is the previous entry plus an exponential gap, so subscribers
        trickle in at ``registration_rate`` per second (the sparse regime
        the Section 2.1 registration goals are stated for).
        """
        if config.registration_mode == "poisson":
            entry_clock[0] += entry_rng.expovariate(
                config.registration_rate)
            return entry_clock[0]
        return 0.0

    def make_link(stream_name: str) -> Link:
        return _make_link(config, streams, stream_name)

    data_users: List[DataSubscriber] = []
    for index in range(config.num_data_users):
        ein = DATA_EIN_BASE + ein_offset + index
        subscriber = DataSubscriber(
            sim, config, ein, forward, reverse,
            forward_link=make_link(f"fl-{ein}"),
            reverse_link=make_link(f"rl-{ein}"),
            stats=stats, rng=streams[f"sub-{ein}"],
            entry_time=entry_time(),
            name=f"{name_prefix}data-{index}")
        data_users.append(subscriber)

    gps_units: List[GpsSubscriber] = []
    for index in range(config.num_gps_users):
        ein = GPS_EIN_BASE + ein_offset + index
        unit = GpsSubscriber(
            sim, config, ein, forward, reverse,
            forward_link=make_link(f"fl-{ein}"),
            reverse_link=make_link(f"rl-{ein}"),
            stats=stats, rng=streams[f"sub-{ein}"],
            entry_time=entry_time(),
            name=f"{name_prefix}gps-{index}")
        gps_units.append(unit)

    # -- uplink e-mail workload -------------------------------------------
    sources: List[PoissonMessageSource] = []
    if config.num_data_users and config.load_index > 0:
        sizes, interarrival = _uplink_workload(config)
        for index, subscriber in enumerate(data_users):
            sources.append(PoissonMessageSource(
                sim, streams[f"traffic-{index}"], interarrival, sizes,
                deliver=subscriber.submit_message,
                start_at=subscriber.entry_time))

    # -- downlink workload ---------------------------------------------------
    forward_sources: List[PoissonMessageSource] = []
    if config.num_data_users and config.forward_load_index > 0:
        sizes = make_size_distribution(
            config.message_size, config.fixed_message_bytes,
            config.uniform_low, config.uniform_high)
        interarrival = interarrival_for_load(
            config.forward_load_index, config.num_data_users,
            sizes.mean_mac_bytes(PAYLOAD_BYTES), timing.CYCLE_LENGTH,
            timing.NUM_FORWARD_DATA_SLOTS, PAYLOAD_BYTES)
        for index, subscriber in enumerate(data_users):
            def deliver(message: Message,
                        sub: DataSubscriber = subscriber) -> None:
                _submit_forward_message(base_station, sub, message)
            forward_sources.append(PoissonMessageSource(
                sim, streams[f"fwd-traffic-{index}"], interarrival,
                sizes, deliver=deliver,
                start_at=subscriber.entry_time))

    # -- robustness instrumentation --------------------------------------
    injector = None
    if config.faults:
        injector = FaultInjector(sim, config,
                                 data_users + gps_units, stats)
    monitor = None
    if config.check_invariants:
        monitor = InvariantMonitor(sim, config, base_station,
                                   data_users, gps_units, stats)

    return CellRun(config=config, stats=stats, sim=sim,
                   base_station=base_station, data_users=data_users,
                   gps_units=gps_units, injector=injector,
                   monitor=monitor, streams=streams, sources=sources,
                   forward_sources=forward_sources)


def attach_data_user(run: CellRun, ein_offset: int = 0,
                     name_prefix: str = "") -> DataSubscriber:
    """Power on one more data subscriber mid-run.

    Used by the service mode's runtime joins.  The subscriber enters
    the cell from SYNCING at the current simulated time, with stream
    names extending the ``build_cell`` sequence, so a replayed join at
    the same instant rebuilds bit-identical state.
    """
    config = run.config
    streams = run.streams
    if streams is None:
        raise ValueError("cell was built without recorded streams")
    index = len(run.data_users)
    ein = DATA_EIN_BASE + ein_offset + index
    bs = run.base_station
    subscriber = DataSubscriber(
        run.sim, config, ein, bs.forward, bs.reverse,
        forward_link=_make_link(config, streams, f"fl-{ein}"),
        reverse_link=_make_link(config, streams, f"rl-{ein}"),
        stats=run.stats, rng=streams[f"sub-{ein}"],
        entry_time=run.sim.now,
        name=f"{name_prefix}data-{index}")
    run.data_users.append(subscriber)
    if config.load_index > 0:
        sizes, interarrival = _uplink_workload(config)
        if run.sources:
            # Joiners inherit the *current* (possibly re-dialled) rate.
            interarrival = run.sources[0].mean_interarrival
        run.sources.append(PoissonMessageSource(
            run.sim, streams[f"traffic-{index}"], interarrival, sizes,
            deliver=subscriber.submit_message,
            start_at=run.sim.now))
    return subscriber


def attach_gps_unit(run: CellRun, ein_offset: int = 0,
                    name_prefix: str = "") -> GpsSubscriber:
    """Power on one more GPS unit mid-run (see ``attach_data_user``)."""
    config = run.config
    streams = run.streams
    if streams is None:
        raise ValueError("cell was built without recorded streams")
    index = len(run.gps_units)
    ein = GPS_EIN_BASE + ein_offset + index
    bs = run.base_station
    unit = GpsSubscriber(
        run.sim, config, ein, bs.forward, bs.reverse,
        forward_link=_make_link(config, streams, f"fl-{ein}"),
        reverse_link=_make_link(config, streams, f"rl-{ein}"),
        stats=run.stats, rng=streams[f"sub-{ein}"],
        entry_time=run.sim.now,
        name=f"{name_prefix}gps-{index}")
    run.gps_units.append(unit)
    return unit


def _submit_forward_message(base_station: BaseStation,
                            subscriber: DataSubscriber,
                            message: Message) -> None:
    """Fragment a downlink message into the subscriber's forward queue."""
    if subscriber.state != ACTIVE or subscriber.uid is None:
        return  # downlink traffic for inactive subscribers is dropped
    fragments = message.fragments(PAYLOAD_BYTES)
    remaining = message.size_bytes
    for index in range(fragments):
        chunk = min(PAYLOAD_BYTES, remaining)
        remaining -= chunk
        base_station.submit_forward(subscriber.uid, ForwardPacket(
            uid=subscriber.uid,
            seq=subscriber.next_forward_seq(),
            payload_len=chunk,
            message_id=message.message_id,
            more=index < fragments - 1,
            created_at=message.created_at))


def run_cell_detailed(config: CellConfig) -> CellRun:
    """Build and run a cell; returns the full run object."""
    run = build_cell(config)
    run.sim.run(until=config.duration)
    finalize_run(run)
    return run


def run_cell(config: CellConfig) -> CellStats:
    """Build and run a cell; returns just the statistics."""
    return run_cell_detailed(config).stats


def finalize_run(run: CellRun) -> None:
    """Post-run accounting for a manually driven cell.

    Callers that ``build_cell`` + ``sim.run`` themselves (tracing and
    observability instrumentation do, to attach hooks before the run)
    must call this to fold the radio audits into the stats and give the
    invariant monitor its final audit.
    """
    stats = run.stats
    for subscriber in run.data_users:
        stats.radio_violations += len(subscriber.radio.violations)
    for unit in run.gps_units:
        stats.radio_violations += len(unit.radio.violations)
    if run.monitor is not None:
        run.monitor.check_now()  # one last audit of the final state
