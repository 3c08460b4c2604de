"""``FuzzyAdmissionControlSystem.accepts`` answers exactly what ``decide`` does.

The network engines ask every controller ``accepts(call, station, now)``.
For FACS that is exact FLC1, one lookup in the certified decision screen's
(R, Cs) cell table, and exact FLC2 only where the cell is ambiguous, the
controller pair has no screen, or the screen has not yet been asked often
enough at that bandwidth to build its tables.  These tests hold the verdict
to ``decide(...).accepted``, errors included, per request and over whole
network runs, with and without tables, and pin when a bandwidth's tables
are built and which paths still call scalar ``decide``.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.io import read_flc_definition_json
from repro.cac.facs import screen as screen_module
from repro.cac.facs import system
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from repro.cellular.calls import Call
from repro.cellular.cell import BaseStation
from repro.cellular.mobility import UserState
from repro.cellular.traffic import ServiceClass
from repro.fuzzy.defuzzification import DefuzzificationError
from repro.simulation import (
    BatchExperimentConfig,
    NetworkExperimentConfig,
    run_coupled_sharded_network_experiment,
)
from repro.simulation.batch import run_des_experiment
from repro.simulation.engine import NetworkSimulation
from repro.tuning import ParameterSpec, SearchSpace
from repro.workloads import WORKLOADS
from tests.conftest import BISECTOR_FACS

CONTROLLER_DIR = Path(__file__).resolve().parents[2] / "examples" / "controllers"

THRESHOLDS = (-0.25, 0.0, 0.123, 0.5)

#: Batch minimums: build a bandwidth's tables on its first verdict, and never.
MINIMUMS = (1, sys.maxsize)


def _tuned_flc1():
    """The paper's FLC1 with one rule at weight 0.5: outside the certified regime."""
    definition = flc1_definition()
    return definition.with_rule(replace(definition.rules[0], weight=0.5))


CONFIGS = {
    # Compiled paper controllers: screened.
    "compiled": FACSConfig(),
    # Bisector defuzzification, as the defuzzifier ablation runs: no screen,
    # exact FLC2 per verdict.
    "bisector": BISECTOR_FACS,
    # The shipped definition exports: a second screened controller pair.
    "definitions": FACSConfig(
        flc1=read_flc_definition_json(CONTROLLER_DIR / "flc1.json"),
        flc2=read_flc_definition_json(CONTROLLER_DIR / "flc2.json"),
    ),
    # A non-unit rule weight: no screen.
    "tuned-weight": FACSConfig(flc1=_tuned_flc1()),
}


def _station(capacity_bu: int, occupancy_bu: int) -> BaseStation:
    station = BaseStation(capacity_bu=capacity_bu)
    if occupancy_bu:
        station.allocate(Call(service=ServiceClass.TEXT, bandwidth_units=occupancy_bu))
    return station


def _request(user: UserState | None, bandwidth_bu: int) -> Call:
    return Call(service=ServiceClass.VOICE, bandwidth_units=bandwidth_bu, user_state=user)


def _outcome(answer, call: Call, station: BaseStation):
    """The verdict ``answer`` gives, or the type of the error it raises."""
    try:
        return answer(call, station, 0.0)
    except DefuzzificationError as exc:
        return type(exc)


def _fresh(memo):
    """An empty copy of an ``lru_cache``-memoised function."""
    return lru_cache(maxsize=64)(memo.__wrapped__)


def _tables_from(patch, minimum: int) -> None:
    """Fresh screens that build a bandwidth's tables on its ``minimum``-th verdict."""
    patch.setattr(screen_module, "_BATCH_MIN_VERDICTS", minimum)
    patch.setattr(system, "_shared_screen", _fresh(system._shared_screen))
    patch.setattr(screen_module, "_shared_verdicts", _fresh(screen_module._shared_verdicts))


def _assert_accepts_equals_decide(config: FACSConfig, call, station) -> None:
    def decided(*args) -> bool:
        return FuzzyAdmissionControlSystem(config).decide(*args).accepted

    expected = _outcome(decided, call, station)
    for minimum in MINIMUMS:
        with pytest.MonkeyPatch.context() as patch:
            _tables_from(patch, minimum)
            controller = FuzzyAdmissionControlSystem(config)
            assert _outcome(controller.accepts, call, station) == expected


# Speeds and distances run past the FLC1 universes (120 km/h, 10 km); the
# station capacity of 60 BU lets occupancy run past FLC2's Cs universe (40).
observations = st.one_of(
    st.none(),
    st.builds(
        UserState,
        speed_kmh=st.floats(0.0, 200.0),
        angle_deg=st.floats(-180.0, 180.0),
        distance_km=st.floats(0.0, 25.0),
    ),
)
loads = st.sampled_from([40, 60]).flatmap(
    lambda capacity: st.tuples(st.just(capacity), st.integers(0, capacity))
)


@settings(max_examples=200, deadline=None)
@given(
    config=st.sampled_from(sorted(CONFIGS)),
    threshold=st.sampled_from(THRESHOLDS),
    user=observations,
    bandwidth_bu=st.sampled_from([1, 5, 10, 3]),
    load=loads,
)
def test_accepts_equals_decide(config, threshold, user, bandwidth_bu, load):
    facs = replace(CONFIGS[config], acceptance_threshold=threshold)
    _assert_accepts_equals_decide(facs, _request(user, bandwidth_bu), _station(*load))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_accepts_equals_decide_at_full_and_over_universe_occupancy(config, threshold):
    facs = replace(CONFIGS[config], acceptance_threshold=threshold)
    users = (None, UserState(0.0, -30.0, 2.0), UserState(150.0, 90.0, 12.0))
    for capacity, occupancy in ((40, 0), (40, 29), (40, 35), (40, 40), (60, 45), (60, 60)):
        for bandwidth in (1, 5, 10, 3):
            for user in users:
                call = _request(user, bandwidth)
                _assert_accepts_equals_decide(facs, call, _station(capacity, occupancy))


def test_ambiguous_cell_runs_exact_flc2_and_agrees(monkeypatch):
    # R=5, Cs=29 holds the widest ambiguous Cv band of the paper's tables;
    # this observation's correction value lands in it, near Cv = 0.525.
    _tables_from(monkeypatch, 1)
    controller = FuzzyAdmissionControlSystem()
    call = _request(UserState(0.0, -30.0, 2.0), 5)
    correction = controller.correction_value(call.user_state)
    assert correction == pytest.approx(0.525, abs=0.005)
    screen = controller._decision_screen()
    assert screen.verdict_at(correction, 5.0, 29.0)[1]
    assert screen.verdict_at(correction, 5.0, 0.0) == (True, False)

    exact = []
    evaluate = controller.flc2.evaluate

    def counting(*args, **kwargs):
        exact.append(args)
        return evaluate(*args, **kwargs)

    for occupancy, exact_runs in ((29, 1), (0, 0)):
        station = _station(40, occupancy)
        expected = controller.decide(call, station, 0.0).accepted
        with monkeypatch.context() as patch:
            patch.setattr(controller.flc2, "evaluate", counting)
            assert controller.accepts(call, station, 0.0) == expected
        assert len(exact) == exact_runs
        exact.clear()


def test_no_rule_fired_errors_match_decide():
    flc1, flc2 = flc1_definition(), flc2_definition()
    # No FLC1 rule covers a standing user; no FLC2 rule covers a video request.
    without_slow = replace(flc1, rules=[r for r in flc1.rules if ("S", "Sl") not in r.antecedent])
    without_video = replace(flc2, rules=[r for r in flc2.rules if ("R", "Vi") not in r.antecedent])
    call = _request(UserState(0.0, 0.0, 2.0), 10)
    configs = (FACSConfig(flc1=without_slow), FACSConfig(flc2=without_video))
    for config in configs:
        controller = FuzzyAdmissionControlSystem(config)
        for occupancy in (0, 35):  # the second request does not fit
            station = _station(40, occupancy)
            with pytest.raises(DefuzzificationError):
                controller.decide(call, station, 0.0)
            with pytest.raises(DefuzzificationError):
                controller.accepts(call, station, 0.0)


class _Vetoing(FuzzyAdmissionControlSystem):
    """A subclass whose own ``decide`` rejects everything."""

    def decide(self, call, station, now):
        return replace(super().decide(call, station, now), accepted=False)


def test_subclass_overriding_decide_is_honoured():
    call, station = _request(UserState(10.0, 0.0, 1.0), 1), _station(40, 0)
    assert FuzzyAdmissionControlSystem().accepts(call, station, 0.0)
    assert not _Vetoing().accepts(call, station, 0.0)


class _ThroughDecide(FuzzyAdmissionControlSystem):
    """The oracle: FACS answering every request through scalar ``decide``."""

    def accepts(self, call, station, now):
        return self.decide(call, station, now).accepted


def _network_config(rings: int, **overrides) -> NetworkExperimentConfig:
    # Above the paper's load, so cells reach the occupancies (Cs >= 21)
    # where the cell tables have ambiguous bands.
    defaults = dict(rings=rings, arrival_rate_per_cell_per_s=0.05, duration_s=300.0, seed=7)
    defaults.update(overrides)
    return NetworkExperimentConfig(**defaults)


@pytest.fixture(
    params=[1, screen_module._BATCH_MIN_VERDICTS, sys.maxsize], ids=["tables", "default", "exact"]
)
def minimum(request, monkeypatch):
    """Tables from the first verdict, at the default minimum, and never."""
    _tables_from(monkeypatch, request.param)
    return request.param


@pytest.mark.parametrize("threshold", [0.0, 0.5])
@pytest.mark.parametrize("rings", [1, 3])
def test_network_run_equals_the_decide_oracle(rings, threshold, minimum):
    config = _network_config(rings)
    facs = FACSConfig(acceptance_threshold=threshold)
    output = NetworkSimulation(config, partial(FuzzyAdmissionControlSystem, facs)).run()
    assert output == NetworkSimulation(config, partial(_ThroughDecide, facs)).run()
    assert output.result.metrics.blocked > 0
    assert output.handoff_attempts > 0


def test_network_run_with_a_workload_equals_the_decide_oracle(minimum):
    config = _network_config(1, workload=WORKLOADS.get("mmpp"))
    output = NetworkSimulation(config, FuzzyAdmissionControlSystem).run()
    assert output == NetworkSimulation(config, _ThroughDecide).run()
    assert output.class_names


def test_coupled_sharded_run_equals_the_decide_oracle(minimum):
    config = _network_config(1)
    output = run_coupled_sharded_network_experiment(config, FuzzyAdmissionControlSystem)
    assert output == run_coupled_sharded_network_experiment(config, _ThroughDecide)
    assert output.handoff_attempts > 0


def test_threads_sharing_a_cold_screen_equal_the_decide_oracle(monkeypatch):
    # A fresh screen cache, so the threads race to build the screen, to
    # count the verdicts at each bandwidth and to build its tables; a short
    # switch interval makes them interleave often.
    _tables_from(monkeypatch, 3)
    configs = [_network_config(1, duration_s=150.0, seed=seed) for seed in range(8)]
    expected = [NetworkSimulation(config, _ThroughDecide).run() for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(NetworkSimulation(config, FuzzyAdmissionControlSystem).run)
                for config in configs
            ]
            outputs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert outputs == expected


def test_only_the_des_oracle_calls_scalar_decide(monkeypatch):
    decided = []
    decide = FuzzyAdmissionControlSystem.decide

    def counting(self, call, station, now):
        decided.append(call.call_id)
        return decide(self, call, station, now)

    monkeypatch.setattr(FuzzyAdmissionControlSystem, "decide", counting)
    config = _network_config(1, duration_s=120.0)
    coupled = NetworkSimulation(config, FuzzyAdmissionControlSystem).run()
    sharded = run_coupled_sharded_network_experiment(config, FuzzyAdmissionControlSystem)
    assert coupled.result.metrics.requested > 0 and sharded.result.metrics.requested > 0
    assert decided == []

    batch = run_des_experiment(
        BatchExperimentConfig(request_count=50, seed=3), FuzzyAdmissionControlSystem()
    )
    assert len(decided) == batch.result.metrics.requested == 50


def _counting_exact_flc2(patch, controller) -> list:
    """The (Cv, R, Cs) of every exact FLC2 evaluation ``controller`` makes."""
    exact = []
    evaluate = controller.flc2.evaluate

    def counting(*args, **kwargs):
        exact.append(args)
        return evaluate(*args, **kwargs)

    patch.setattr(controller.flc2, "evaluate", counting)
    return exact


def test_a_bandwidths_tables_are_built_on_its_minimum_verdict(monkeypatch):
    _tables_from(monkeypatch, 3)
    # Two controllers of one pair share one screen and its counts.
    first, second = FuzzyAdmissionControlSystem(), FuzzyAdmissionControlSystem()
    screen = first._decision_screen()
    assert second._decision_screen() is screen
    verdicts = screen._verdicts
    user = UserState(10.0, 0.0, 1.0)
    text, video = _request(user, 1), _request(user, 10)
    # Three verdicts at R=1 (the third at a Cs never asked before, above
    # FLC2's universe), one at R=10, then R=1 at any Cs.
    asks = [(first, text, 0), (second, text, 5), (first, video, 0), (first, text, 47)]
    asks += [(second, text, occupancy) for occupancy in (0, 5, 33, 60)]
    expected = [
        controller.decide(call, _station(60, occupancy), 0.0).accepted
        for controller, call, occupancy in asks
    ]
    exact = _counting_exact_flc2(monkeypatch, first)
    answers = [
        controller.accepts(call, _station(60, occupancy), 0.0)
        for controller, call, occupancy in asks[:3]
    ]
    # No table before the third verdict at R=1: every verdict is exact.
    assert len(exact) == 3
    assert verdicts._cells == {}
    assert verdicts._waiting == {1.0: 2, 10.0: 1}
    # The third builds every table of R=1, and it and every later R=1
    # verdict read one: exact FLC2 runs only where its cell is ambiguous.
    answers += [
        controller.accepts(call, _station(60, occupancy), 0.0)
        for controller, call, occupancy in asks[3:]
    ]
    assert answers == expected
    assert verdicts.batches == 1
    assert set(verdicts._cells) == {(1.0, float(cs)) for cs in (*range(41), 47, 60)}
    cell = bisect_right(verdicts._edge_list, first.correction_value(user)) - 1
    ambiguous = [verdicts._table(1.0, cs)[cell] == -1 for cs in (47, 0, 5, 33, 60)]
    assert len(exact) == 3 + sum(ambiguous)


def test_block_rows_count_toward_their_bandwidths_batch(monkeypatch):
    _tables_from(monkeypatch, 3)
    controller = FuzzyAdmissionControlSystem()
    verdicts = controller._decision_screen()._verdicts
    count = 4
    speeds, angles, distances = np.full(count, 10.0), np.zeros(count), np.ones(count)
    user = UserState(10.0, 0.0, 1.0)
    text = _request(user, 1)
    expected = {
        (bandwidth, occupancy): controller.decide(
            _request(user, bandwidth), _station(40, occupancy), 0.0
        ).accepted
        for bandwidth in (1, 10)
        for occupancy in (0, 3, 7)
    }
    # A cold block finishes FLC1 in one pass over the row and the next ones,
    # and a block row and a single verdict count toward one batch.
    cold = controller.decide_columns(speeds, angles, distances, np.ones(count))
    assert cold.accepts(0, 0) == expected[1, 0]
    assert controller.accepts(text, _station(40, 7), 0.0) == expected[1, 7]
    assert verdicts._cells == {}
    assert (cold.screened, cold.exact_flc1, cold.exact_flc2) == (0, count, 1)
    # The third verdict at R=1 builds every R=1 table and reads its own.
    assert cold.accepts(1, 7) == expected[1, 7]
    assert verdicts.batches == 1
    assert cold.accepts(2, 0) == expected[1, 0]
    assert (cold.screened, cold.exact_flc1, cold.exact_flc2) == (2, count, 1)
    # A warm block finishes FLC1 one row at a time, for a row whose
    # bandwidth has no tables yet.
    warm = controller.decide_columns(speeds, angles, distances, np.array([1.0, 1.0, 1.0, 10.0]))
    assert [warm.accepts(k, 7) for k in range(count)] == [expected[1, 7]] * 3 + [expected[10, 7]]
    assert (warm.screened, warm.exact_flc1, warm.exact_flc2) == (3, 1, 1)
    # A cold pass covers a bounded run of rows, not the whole block.
    wide = controller.decide_columns(
        *(column.repeat(50) for column in (speeds, angles, distances)), np.full(4 * 50, 10.0)
    )
    assert wide.accepts(0, 3) == expected[10, 3]
    assert wide.exact_flc1 == screen_module._FLC1_PASS_ROWS < 4 * 50
    assert verdicts._waiting[10.0] == 2 and verdicts.batches == 1


def test_pairs_of_one_flc2_and_threshold_share_their_tables(monkeypatch):
    _tables_from(monkeypatch, screen_module._BATCH_MIN_VERDICTS)
    space = SearchSpace((ParameterSpec("mf.S.M.1", choices=(35.0,)),))
    tuned = FACSConfig(flc1=space.apply(flc1_definition(), (35.0,)))
    paper = FuzzyAdmissionControlSystem()._decision_screen()
    retuned = FuzzyAdmissionControlSystem(tuned)._decision_screen()
    stricter = FuzzyAdmissionControlSystem(FACSConfig(acceptance_threshold=0.5))
    assert retuned is not paper
    assert retuned._verdicts is paper._verdicts
    assert stricter._decision_screen()._verdicts is not paper._verdicts


def test_network_run_builds_tables_only_for_often_asked_bandwidths(monkeypatch):
    minimum = screen_module._BATCH_MIN_VERDICTS
    _tables_from(monkeypatch, minimum)
    config = _network_config(1, duration_s=600.0)
    NetworkSimulation(config, FuzzyAdmissionControlSystem).run()
    verdicts = FuzzyAdmissionControlSystem()._decision_screen()._verdicts
    built = set(verdicts._batches)
    # Text calls (60% of them) reach the minimum; video calls (10%) do not.
    assert 1.0 in built and 10.0 not in built
    assert {bandwidth for bandwidth, _ in verdicts._cells} == built
    assert all(verdicts._waiting[bandwidth] == minimum for bandwidth in built)
    assert all(
        asked < minimum for bandwidth, asked in verdicts._waiting.items() if bandwidth not in built
    )
