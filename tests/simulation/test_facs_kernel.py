"""The batch experiment's FACS blocks: equal to the DES oracle, and routed.

``run_batch_experiment`` runs every controller through one admission loop;
an exact FACS controller reads its verdicts from FACS blocks, which read
the certified screen wherever the controller pair has one.  The
discrete-event loop (``run_des_experiment``) stays the oracle, and no run
of the admission loop enters it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import CONTROLLERS
from repro.cac.complete_sharing import CompleteSharingController
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.facs.system import FACSConfig
from repro.cellular.mobility import UserProfile
from repro.des.environment import Environment
from repro.simulation.batch import run_batch_experiment, run_des_experiment
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.scenario import facs_factory, scc_factory
from repro.tuning import ParameterSpec, SearchSpace
from repro.workloads import WORKLOADS
from tests.conftest import BISECTOR_FACS


def _tuned_flc1(target: str, value: float) -> FACSConfig:
    space = SearchSpace((ParameterSpec(target, choices=(value,)),))
    return FACSConfig(flc1=space.apply(flc1_definition(), (value,)))


#: Every FACS configuration the figure sweeps, ablations, tuning and
#: workload studies run: (profile, workload name, controller factory).
CASES = {
    "default": (UserProfile(), None, facs_factory()),
    "speed-4": (UserProfile(speed_kmh=4.0), None, facs_factory()),
    "speed-60": (UserProfile(speed_kmh=60.0), None, facs_factory()),
    "angle-0": (UserProfile(angle_deg=0.0), None, facs_factory()),
    "angle-90": (UserProfile(angle_deg=90.0), None, facs_factory()),
    "distance-1": (UserProfile(distance_km=1.0), None, facs_factory()),
    "distance-10": (UserProfile(distance_km=10.0), None, facs_factory()),
    "threshold-0.25": (
        UserProfile(),
        None,
        facs_factory(FACSConfig(acceptance_threshold=-0.25)),
    ),
    "threshold+0.5": (
        UserProfile(),
        None,
        facs_factory(FACSConfig(acceptance_threshold=0.5)),
    ),
    # The defuzzifier ablation's controllers: definitions that name another
    # defuzzifier put the pair outside the certified regime.
    "bisector": (UserProfile(), None, facs_factory(BISECTOR_FACS)),
    "mom": (
        UserProfile(),
        None,
        facs_factory(
            FACSConfig(
                flc1=replace(flc1_definition(), defuzzifier="mom"),
                flc2=replace(flc2_definition(), defuzzifier="mom"),
            )
        ),
    ),
    # A non-unit rule weight puts the pair outside the certified regime.
    "tuned-weight": (UserProfile(), None, facs_factory(_tuned_flc1("weight.1", 0.5))),
    # A shifted membership peak keeps it certified.
    "tuned-peak": (UserProfile(), None, facs_factory(_tuned_flc1("mf.S.M.1", 35.0))),
    **{
        f"workload-{name}": (UserProfile(), name, facs_factory())
        for name in WORKLOADS.names()
    },
}

#: Cases also run at 1,500 requests: three blocks of rows, and more of the
#: screen's (R, Cs) tables and exact fallbacks than 100 requests reach.
SCREENED_CASES = ("default", "threshold+0.5", "tuned-peak", "workload-mmpp")


def _config(case: str, request_count: int, seed: int = 7) -> BatchExperimentConfig:
    profile, workload, _ = CASES[case]
    return BatchExperimentConfig(
        request_count=request_count,
        user_profile=profile,
        seed=seed,
        workload=None if workload is None else WORKLOADS.get(workload),
    )


@pytest.mark.parametrize(
    ("case", "request_count"),
    [("default", 0)]
    + [(case, count) for case in CASES for count in (10, 100)]
    + [(case, 1_500) for case in SCREENED_CASES],
)
def test_facs_runs_equal_the_des_oracle(case, request_count):
    # Field for field: controller, metrics, parameters and seed (the
    # RunResult), peak occupancy, per-class names and counters, and the
    # (empty) per-call records.
    config = _config(case, request_count)
    factory = CASES[case][2]
    kernel = run_batch_experiment(config, factory)
    oracle = run_des_experiment(config, factory())
    assert kernel.result == oracle.result
    assert kernel.peak_occupancy_bu == oracle.peak_occupancy_bu
    assert kernel.class_names == oracle.class_names
    assert kernel.class_values == oracle.class_values
    assert kernel == oracle
    assert len(kernel.class_values) == 5 * len(kernel.class_names)


class _CallCounter:
    """Counts the calls of a wrapped function or classmethod."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestRouting:
    @pytest.fixture
    def des_runs(self, monkeypatch):
        counter = _CallCounter(Environment.run)
        monkeypatch.setattr(
            Environment, "run", lambda env, *a, **k: counter(env, *a, **k)
        )
        return counter

    def test_facs_never_enters_the_event_loop(self, des_runs):
        run_batch_experiment(_config("default", 100), facs_factory())
        assert des_runs.calls == 0

    def test_no_run_enters_the_event_loop(self, des_runs):
        for name in CONTROLLERS.names():
            factory = CONTROLLERS.get(name)()
            for collect_trace in (False, True):
                output = run_batch_experiment(
                    _config("default", 100), factory, collect_trace=collect_trace
                )
                assert len(output.records) == (100 if collect_trace else 0)
        assert des_runs.calls == 0

    # The oracle the admission loop is held to stays a run of the event
    # loop, so equality with it is not the loop compared with itself.
    @pytest.mark.parametrize(
        "factory", [scc_factory(), CompleteSharingController], ids=["scc", "cs"]
    )
    def test_other_controllers_stay_on_the_event_loop(self, des_runs, factory):
        config = _config("default", 100)
        oracle = run_des_experiment(config, factory())
        assert des_runs.calls == 1
        assert run_batch_experiment(config, factory) == oracle
        assert des_runs.calls == 1

    def test_collect_trace_stays_on_the_event_loop(self, des_runs):
        config = _config("default", 100)
        oracle = run_des_experiment(config, facs_factory()(), collect_trace=True)
        assert des_runs.calls == 1
        assert len(oracle.records) == 100
        output = run_batch_experiment(config, facs_factory(), collect_trace=True)
        assert output == oracle
        assert des_runs.calls == 1
