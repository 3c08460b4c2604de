"""The batch experiment's FACS kernel: equal to the DES oracle, and routed.

``run_batch_experiment`` runs a FACS controller through the exact column
kernel and every other controller on the discrete-event loop, which stays
FACS's oracle (``run_des_experiment``).  Runs shorter than 1,024 requests
score every verdict exactly; longer ones read the certified screen.
"""

from __future__ import annotations

from functools import lru_cache, partial

import pytest

from repro.cac.complete_sharing import CompleteSharingController
from repro.cac.facs import system
from repro.cac.facs.definitions import flc1_definition
from repro.cac.facs.screen import DecisionScreen
from repro.cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from repro.cellular.mobility import UserProfile
from repro.des.environment import Environment
from repro.fuzzy.defuzzification import defuzzifier_by_name
from repro.simulation.batch import run_batch_experiment, run_des_experiment
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.scenario import facs_factory, scc_factory
from repro.tuning import ParameterSpec, SearchSpace
from repro.workloads import WORKLOADS


def _tuned_flc1(target: str, value: float) -> FACSConfig:
    space = SearchSpace((ParameterSpec(target, choices=(value,)),))
    return FACSConfig(flc1_definition=space.apply(flc1_definition(), (value,)))


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
    "bisector": (
        UserProfile(),
        None,
        partial(FuzzyAdmissionControlSystem, defuzzifier=defuzzifier_by_name("bisector")),
    ),
    "mom": (
        UserProfile(),
        None,
        partial(FuzzyAdmissionControlSystem, defuzzifier=defuzzifier_by_name("mom")),
    ),
    "reference": (UserProfile(), None, facs_factory(FACSConfig(engine="reference"))),
    # A non-unit rule weight puts the pair outside the certified regime.
    "tuned-weight": (UserProfile(), None, facs_factory(_tuned_flc1("weight.1", 0.5))),
    # A shifted membership peak keeps it certified.
    "tuned-peak": (UserProfile(), None, facs_factory(_tuned_flc1("mf.S.M.1", 35.0))),
    **{
        f"workload-{name}": (UserProfile(), name, facs_factory())
        for name in WORKLOADS.names()
    },
}

#: Cases also run at 1,500 requests, past the screen's 1,024-request rule.
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

    @pytest.mark.parametrize(
        "factory", [scc_factory(), CompleteSharingController], ids=["scc", "cs"]
    )
    def test_other_controllers_stay_on_the_event_loop(self, des_runs, factory):
        run_batch_experiment(_config("default", 100), factory)
        assert des_runs.calls == 1

    def test_collect_trace_stays_on_the_event_loop(self, des_runs):
        output = run_batch_experiment(
            _config("default", 100), facs_factory(), collect_trace=True
        )
        assert des_runs.calls == 1
        assert len(output.records) == 100

    def test_short_runs_build_no_screen(self, monkeypatch):
        # A threshold no other run uses, and a fresh screen cache, so any
        # screen lookup would have to build one.
        monkeypatch.setattr(
            system, "_shared_screen", lru_cache(maxsize=64)(system._shared_screen.__wrapped__)
        )
        builds = _CallCounter(DecisionScreen.build)
        monkeypatch.setattr(DecisionScreen, "build", builds)
        factory = facs_factory(FACSConfig(acceptance_threshold=0.123))
        run_batch_experiment(_config("default", 100), factory)
        assert builds.calls == 0
        run_batch_experiment(_config("default", 1_500), factory)
        assert builds.calls == 1
