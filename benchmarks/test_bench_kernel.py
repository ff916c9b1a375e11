"""Micro-benchmarks of the substrates (kernel, codec, full cell).

Not paper artifacts -- these document the cost of the building blocks so
regressions in the hot paths (event loop, RS decode, full-cell cycle
rate) are visible in CI.
"""

import random

from repro.core.cell import run_cell
from repro.core.config import CellConfig
from repro.phy.rs import RS_64_48
from repro.sim import Simulator


def test_event_loop_throughput(benchmark):
    def spin():
        sim = Simulator()

        def tick():
            if sim.now < 2000.0:
                sim.call_at(sim.now + 1.0, tick)

        tick()
        sim.run()
        return sim.now

    result = benchmark(spin)
    assert result == 2000.0


def test_rs_encode(benchmark):
    message = bytes(range(48))
    codeword = benchmark(lambda: RS_64_48.encode(message))
    assert len(codeword) == 64


def test_rs_decode_with_errors(benchmark):
    rng = random.Random(1)
    message = bytes(range(48))
    codeword = bytearray(RS_64_48.encode(message))
    for position in rng.sample(range(64), 8):
        codeword[position] ^= rng.randrange(1, 256)
    received = bytes(codeword)
    decoded = benchmark(lambda: RS_64_48.decode(received))
    assert decoded == message


def test_full_cell_cycle_rate(benchmark):
    config = CellConfig(num_data_users=9, num_gps_users=4,
                        load_index=0.8, cycles=60, warmup_cycles=10,
                        seed=1)
    stats = benchmark.pedantic(lambda: run_cell(config),
                               rounds=3, iterations=1)
    assert stats.data_packets_delivered > 0
