"""Long runs keep a flat heap: a serve cell and a city shard.

``tracemalloc`` starts before the run is built, so memory allocated
during warm-up is subtracted again when it is freed, and churn in
bounded structures does not read as growth.  After warm-up, each run
must grow by less than :data:`BOUND` over a late window.
"""

import gc
import tracemalloc

import pytest

from repro.serve.service import CellService
from repro.shard.config import CityConfig
from repro.shard.shard import ShardSim
from repro.shard.worker import step_shards
from tests.test_golden import serve_cell, serve_config

BOUND = 100 * 1024


def traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_serve_cell_heap_stays_flat(tmp_path, traced):
    warm, window = 1200, 1000
    service = CellService("cell0", serve_cell(warm + window),
                          serve_config(tmp_path, warm + window))
    service.start()
    try:
        for _ in range(warm):
            service.step_cycle()
        mark = traced_bytes()
        for _ in range(window):
            service.step_cycle()
        grown = traced_bytes() - mark
    finally:
        service.shutdown(clean=True)
    assert grown < BOUND, (f"serve cell grew {grown / 1024:.0f} KiB "
                           f"over {window} cycles")


@pytest.mark.slow
def test_city_shard_heap_stays_flat(traced):
    config = CityConfig(rows=2, cols=2, num_shards=1, epochs=40,
                        cycles_per_epoch=50, warmup_cycles=5, seed=1)
    shard = ShardSim(config, 0)
    mark = 0
    for epoch in range(config.epochs):
        if epoch == 20:
            mark = traced_bytes()
        step_shards([shard], epoch, [[]])
    grown = traced_bytes() - mark
    assert grown < BOUND, (f"city shard grew {grown / 1024:.0f} KiB "
                           f"from epoch 20 to epoch 40")
