"""Experiment harnesses: one module per table/figure of the paper.

Every artifact of the paper's evaluation section has a module here that
regenerates it (see the per-experiment index in DESIGN.md):

========  ==========================================  =====================
artifact  what it shows                               module
========  ==========================================  =====================
Table 1   physical-layer timing parameters            ``tables``
Table 2   reverse-channel access times                ``tables``
Fig 8(a)  utilization vs load                         ``fig8_utilization``
Fig 8(b)  packet delay vs load                        ``fig8_delay``
Fig 9     control overhead vs load                    ``fig9_overhead``
Fig 10    contention collisions / reservation latency ``fig10_collision``
Fig 11    fairness vs load                            ``fig11_fairness``
Fig 12a   second-control-field bandwidth gain         ``fig12_gains``
Fig 12b   dynamic slot adjustment gain                ``fig12_gains``
(S 2.1)   registration latency CDF                    ``registration``
(S 3.3)   GPS temporal QoS                            ``gps_qos``
X1        surveyed baseline protocols                 ``baselines``
X2        design-choice ablations                     ``ablation``
========  ==========================================  =====================

Each module exposes ``run(quick=False, seeds=...) -> ExperimentResult``;
``python -m repro.experiments --list`` enumerates them and
``python -m repro.experiments <name>`` runs one and prints its report.
"""

from repro.experiments.runner import (
    ExperimentResult,
    PAPER_LOADS,
    sweep_cell_config,
    sweep_loads,
    sweep_spec,
)

__all__ = [
    "ExperimentResult",
    "PAPER_LOADS",
    "sweep_cell_config",
    "sweep_loads",
    "sweep_spec",
]
