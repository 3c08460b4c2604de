"""A single-cell FACS run on a cell larger than FLC2's 40 BU ``Cs`` universe.

FACS reads the counter state ``Cs`` from the station's occupancy and FLC2
clamps it into its universe; FACS sizes nothing else by that universe.  The
run here fills a 60 BU cell past 40 BU and must give the same answer with
the per-call trace on and off.  The network engine's case is
``test_network_loop.py``'s FACS run on 60 BU cells.
"""

from __future__ import annotations

from repro.simulation.batch import run_batch_experiment
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.scenario import facs_factory

UNIVERSE_BU = 40
CAPACITY_BU = 60


def test_single_cell_run_is_the_same_with_and_without_the_trace():
    config = BatchExperimentConfig(request_count=300, capacity_bu=CAPACITY_BU, seed=1)
    untraced = run_batch_experiment(config, facs_factory())
    traced = run_batch_experiment(config, facs_factory(), collect_trace=True)
    assert untraced.peak_occupancy_bu > UNIVERSE_BU
    assert traced.result == untraced.result
    assert traced.peak_occupancy_bu == untraced.peak_occupancy_bu
    assert len(traced.records) == config.request_count
