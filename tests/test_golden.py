"""Golden digests: the output bytes of small runs, pinned.

Each digest is the sha256 of the canonical JSON (sorted keys, compact
separators) of a run's output, taken at a tree known to be right.  A
mismatch means a change altered what the simulator computes; the
failure prints both digests.  If the change is meant to alter output,
edit the digest here and say why in CHANGES.md.
"""

import hashlib
import json
import random

import pytest

from repro.core.cell import run_cell_detailed
from repro.core.config import CellConfig
from repro.engine import execute
from repro.experiments import calibration, chaos, registration
from repro.experiments.runner import sweep_spec
from repro.faults.schedule import parse_faults
from repro.fuzz.campaign import run_campaign
from repro.phy.rs import RS_64_48
from repro.serve.config import ServeConfig
from repro.serve.service import CellService
from repro.shard.config import CityConfig, MobilityConfig
from repro.shard.coordinator import run_city


def digest_of(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def assert_golden(what: str, actual: str, expected: str) -> None:
    assert actual == expected, (
        f"{what} digest changed: golden {expected}, this tree {actual}")


def serve_faults(horizon: int) -> str:
    """A burst every 100 cycles up to ``horizon``: a data user crashes
    and restarts, a GPS unit fades, then a control-field storm."""
    entries = []
    for burst, at in enumerate(range(10, horizon, 100)):
        data, gps = burst % 14, burst % 8
        entries += [f"crash:data-{data}@{at}",
                    f"restart:data-{data}@{at + 5}",
                    f"fade:gps-{gps}@{at + 12}+3*0.95",
                    f"cf_storm:*@{at + 25}+2"]
    return ";".join(entries)


def serve_cell(horizon: int) -> CellConfig:
    """The bench's serve cell: the paper's maximum population (14 data
    + 8 GPS users) at load 0.8, with fault bursts up to ``horizon``."""
    return CellConfig(num_data_users=14, num_gps_users=8,
                      load_index=0.8, liveness_lease_cycles=8,
                      eviction_backoff_jitter_cycles=2,
                      faults=parse_faults(serve_faults(horizon)), seed=1)


def serve_config(root, cycles: int) -> ServeConfig:
    return ServeConfig(name="golden", cells=1, cycle_period_s=0.0,
                       max_cycles=cycles, journal_root=str(root),
                       history_cycles=16)


def phy_cell_digest(config: CellConfig) -> str:
    """A cell's summary plus every subscriber link's codeword counts,
    forward then reverse, data users before GPS units."""
    run = run_cell_detailed(config)
    links = [[link.codewords_sent, link.codewords_lost]
             for unit in run.data_users + run.gps_units
             for link in (unit.forward_link, unit.reverse_link)]
    return digest_of({"summary": run.stats.summary(), "links": links})


#: Symbol-level channels: each codeword is corrupted symbol by symbol
#: and run through the RS decoder, so these pin the codec's outcomes.
#: One perfect-channel cell pins the codeword counts of the other
#: delivery path.
PHY_CELLS = {
    # survives() on a Gilbert-Elliott channel.
    "ge": (CellConfig(num_data_users=9, num_gps_users=3, load_index=0.8,
                      error_model="ge", cycles=200, warmup_cycles=20,
                      seed=1),
           "82af52f8599b580ec84f8a3e129c6347"
           "f11d8e5859abcd0b4b3848b08e6c1550"),
    # survives() on an i.i.d. symbol-error channel.
    "iid": (CellConfig(num_data_users=9, num_gps_users=3, load_index=0.8,
                       error_model="iid", symbol_error_rate=0.05,
                       cycles=200, warmup_cycles=20, seed=1),
            "fd15e0625aa65ca02354b1e85bdb1111"
            "78448d7265d5e79893bc5c764ed741b4"),
    # Perfect links, which the channels count without survives(),
    # faded to an outage model and back: a faded link must draw, and a
    # clean one count each delivery once.
    "perfect_fade": (
        CellConfig(num_data_users=9, num_gps_users=3, load_index=0.8,
                   faults=parse_faults("fade:data-*@60+8*0.3;"
                                       "fade:gps-*@120+3*0.9"),
                   cycles=200, warmup_cycles=20, seed=1),
        "2337488f5cb7e2adbc682f7b3e2d418f"
        "9f88917e28e13aeafdb27cf07fc90c53"),
    # deliver_codewords() over real codewords.
    "full_fidelity_iid": (
        CellConfig(num_data_users=5, num_gps_users=2, load_index=0.5,
                   error_model="iid", symbol_error_rate=0.08,
                   full_fidelity=True, cycles=100, warmup_cycles=15,
                   seed=8),
        "291b0fd4974bf5197b634b061228159c"
        "2c5b8997e2035232e60181b7ec4c354d"),
}


@pytest.mark.parametrize("name", list(PHY_CELLS))
def test_symbol_level_channel(name):
    config, expected = PHY_CELLS[name]
    assert_golden(f"{name} cell", phy_cell_digest(config), expected)


#: 300 consecutive ``corrupt()`` outputs of each calibration scenario's
#: model on one codeword, from ``random.Random(1)``, plus the stream's
#: final state: pins every symbol-level draw, the screen limits 1, 2, 6,
#: 13 and 26 of the i.i.d. and good-state draws and the bad-state walk.
SYMBOL_DRAWS = {
    "GE default (1% bad state)":
        "93e477cfc0a891a97d1b5fa422f6a013"
        "3345311ab8e0966f1e98de2ca5149072",
    "GE deep fades":
        "d08dee1409e005558196ac2982d7b259"
        "bbbcfa80237d0b28609ac71c355e48aa",
    "iid SER=0.5%":
        "7639e650008a970b7180e80c5840bff6"
        "f1fd122aa1acabbb447390c723653799",
    "iid SER=2%":
        "40e7d56c7db36c1e568c4749324d5a03"
        "f55019bac357a31180007d1d34578e6b",
    "iid SER=5%":
        "69264e3387e53689512270c05cd179f8"
        "aa80d95bcd066c68f02be12983f30f6a",
    "iid SER=10%":
        "62d33f6cc29fb89f2f481cb14126c302"
        "8fac475926fdbb4f2fb7707f4ebdf677",
}


@pytest.mark.parametrize("name", list(SYMBOL_DRAWS))
def test_symbol_draws(name):
    model = dict(calibration.scenarios())[name]
    clean = RS_64_48.encode(bytes(range(48)))
    rng = random.Random(1)
    outputs = [model.corrupt(clean, rng) for _ in range(300)]
    assert_golden(f"{name} draws",
                  digest_of({"outputs": outputs, "state": rng.getstate()}),
                  SYMBOL_DRAWS[name])


def test_calibration_quick():
    # C1: the codeword loss rate of each scenario through the decoder.
    result = execute(calibration.spec(quick=True), jobs=1, cache=False)
    assert_golden("calibration", digest_of(result.values),
                  "64bc188008cc492d4f943c66a4623897"
                  "f10223f1b29f0953965aed473917b866")


def test_fig8_quick_sweep():
    # The bench's seed-1 sweep input: equals bench/golden.json's sweep.
    result = execute(sweep_spec(seeds=(1, 2, 3), quick=True), jobs=1,
                     cache=False)
    assert_golden("sweep", digest_of(result.values),
                  "5ee6e403705762a2a81bdd7bbbc4ef5c"
                  "05b470ff45a0c6456a4c5c5a82ec5821")


def test_chaos_quick():
    result = execute(chaos.spec(quick=True), jobs=1, cache=False)
    assert_golden("chaos", digest_of(result.values),
                  "e1bb10d97c3be8715091b78373b5ad3c"
                  "05e310058714fc8e2f43870e06bdae00")


def test_registration_quick():
    # Pins cdf2/cdf10, the registration latency distribution.
    result = execute(registration.spec(quick=True), jobs=1, cache=False)
    assert_golden("registration", digest_of(result.values),
                  "aca8b56ebeb16655ce7052b9de9f9385"
                  "9c27699f25c71aba5f91349bfab95c09")


@pytest.mark.parametrize("jobs", [1, 2])
def test_fuzz_campaign(jobs):
    # At jobs 2 the pool hands the cases out largest work first.
    report = run_campaign(7, 8, jobs=jobs, shrink=False)
    assert_golden(f"fuzz campaign (jobs {jobs})", report.digest,
                  "7888eb6bc597ede8")


@pytest.mark.parametrize("jobs", [1, 2])
def test_city(jobs):
    # CI's city-smoke config.
    config = CityConfig(
        rows=4, cols=4, num_shards=2,
        cell=CellConfig(num_data_users=2, num_gps_users=1,
                        load_index=0.0),
        epochs=4, cycles_per_epoch=20, warmup_cycles=5,
        mobility=MobilityConfig(movers_per_cell=1, hops_per_epoch=1.0),
        seed=7)
    result = run_city(config, jobs=jobs, checkpoint=False)
    assert_golden(f"city (jobs {jobs})", result.digest,
                  "e1b7d080dd228ecf35e49a59bdd4196a"
                  "5f5da8716a31dd930aa9fe8635d68f2f")


def test_serve_cell_and_its_replay(tmp_path):
    cycles = 200
    service = CellService("cell0", serve_cell(cycles),
                          serve_config(tmp_path, cycles))
    service.start()
    for _ in range(cycles):
        service.step_cycle()
    counters = service._sim_counters()
    service.shutdown(clean=True)
    snapshot = service.journal.load().snapshot
    assert snapshot["cycle"] == cycles
    assert_golden("serve snapshot", digest_of(snapshot),
                  "6b85e028ee204d671bbaba2b4e2e9b43"
                  "4a13e9e94dd10e9e845fb5b859d72bcc")

    resumed = CellService("cell0", serve_cell(cycles),
                          serve_config(tmp_path, cycles))
    resumed.start(resume=True)
    try:
        assert resumed.cycle == cycles
        assert resumed._sim_counters() == counters
    finally:
        resumed.shutdown(clean=True)
