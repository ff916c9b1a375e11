"""macfuzz: deterministic adversarial campaigns against OSU-MAC.

A campaign draws a budget of :class:`FuzzCase` values -- legal-but-hostile
cell configurations, fault schedules in the ``repro.faults`` grammar,
and (for service-mode cases) runtime control ops -- from a single
campaign seed, runs each case through the run engine, and judges every
run with a stack of oracles:

* the existing :class:`repro.faults.InvariantMonitor` (protocol safety),
* the observability layer's independent GPS 4-second deadline check,
* a stabilization oracle (after the last disturbance settles, no zombie
  subscribers and no leaked registry records),
* conservation properties over the statistics and per-cycle timeline.

Failing cases are shrunk (:mod:`repro.fuzz.shrink`) to minimal
reproducers, bucketed by oracle + first-violation fingerprint
(:mod:`repro.fuzz.oracles`), and written as corpus entries
(:mod:`repro.fuzz.corpus`) that CI replays forever after.

Everything is derived from the campaign seed through
:class:`repro.sim.rng.RandomStreams`: the same seed always yields the
same cases, verdicts, buckets, and shrunk reproducers, regardless of
``--jobs``.
"""

from repro.fuzz.campaign import CampaignReport, run_campaign
from repro.fuzz.case import CASE_SCHEMA, FuzzCase
from repro.fuzz.corpus import (
    CORPUS_SCHEMA,
    bucket_id,
    iter_entries,
    make_entry,
    replay_entry,
    write_entry,
)
from repro.fuzz.generator import CampaignGenerator
from repro.fuzz.oracles import Violation, bucket_of
from repro.fuzz.runner import run_fuzz_case
from repro.fuzz.shrink import shrink_case

__all__ = [
    "CASE_SCHEMA",
    "CORPUS_SCHEMA",
    "CampaignGenerator",
    "CampaignReport",
    "FuzzCase",
    "Violation",
    "bucket_id",
    "bucket_of",
    "iter_entries",
    "make_entry",
    "replay_entry",
    "run_campaign",
    "run_fuzz_case",
    "shrink_case",
    "write_entry",
]
