"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cac.base import AdmissionController
from repro.cac.facs import FLC1, FLC2, FACSConfig, FuzzyAdmissionControlSystem
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.scc import ShadowClusterController
from repro.cellular import BaseStation, Call, CallType, ServiceClass, UserState
from repro.des import Environment, StreamFactory

#: FACS with bisector defuzzification in both stages, as the defuzzifier
#: ablation runs it.  Outside the certified regime, so it has no decision
#: screen: its verdicts are scored exactly (``ExactColumns``).
BISECTOR_FACS = FACSConfig(
    flc1=replace(flc1_definition(), defuzzifier="bisector"),
    flc2=replace(flc2_definition(), defuzzifier="bisector"),
)


@pytest.fixture
def env() -> Environment:
    """A fresh discrete-event simulation environment."""
    return Environment()


@pytest.fixture
def des_runs(monkeypatch) -> list[Environment]:
    """The environments that enter ``Environment.run``, in order."""
    entered: list[Environment] = []
    run = Environment.run

    def counted(env, *args, **kwargs):
        entered.append(env)
        return run(env, *args, **kwargs)

    monkeypatch.setattr(Environment, "run", counted)
    return entered


@pytest.fixture
def controller_asks(monkeypatch) -> SimpleNamespace:
    """What the controllers are asked, in order: ``accepts`` lists the call
    type of each request asked on its call, ``decide_columns`` the row count
    of each FACS block."""
    asked = SimpleNamespace(accepts=[], decide_columns=[])
    for owner in (AdmissionController, FuzzyAdmissionControlSystem):
        accepts = owner.__dict__["accepts"]

        def counted(self, call, station, now, _accepts=accepts):
            asked.accepts.append(call.call_type)
            return _accepts(self, call, station, now)

        monkeypatch.setattr(owner, "accepts", counted)
    decide_columns = FuzzyAdmissionControlSystem.decide_columns

    def blocked(self, speeds, angles, distances, request_bus):
        asked.decide_columns.append(len(request_bus))
        return decide_columns(self, speeds, angles, distances, request_bus)

    monkeypatch.setattr(FuzzyAdmissionControlSystem, "decide_columns", blocked)
    return asked


@pytest.fixture
def streams() -> StreamFactory:
    """A deterministic random stream factory."""
    return StreamFactory(master_seed=424242)


@pytest.fixture(scope="session")
def flc1() -> FLC1:
    """FLC1 is stateless; building it once per session keeps the suite fast."""
    return FLC1()


@pytest.fixture(scope="session")
def flc2() -> FLC2:
    """FLC2 is stateless; building it once per session keeps the suite fast."""
    return FLC2()


@pytest.fixture
def facs() -> FuzzyAdmissionControlSystem:
    """A fresh FACS controller."""
    return FuzzyAdmissionControlSystem()


@pytest.fixture
def scc() -> ShadowClusterController:
    """A fresh SCC controller."""
    return ShadowClusterController()


@pytest.fixture
def station() -> BaseStation:
    """A base station with the paper's 40 BU capacity."""
    return BaseStation()


def make_call(
    service: ServiceClass = ServiceClass.VOICE,
    bandwidth: int | None = None,
    call_type: CallType = CallType.NEW,
    speed: float = 30.0,
    angle: float = 0.0,
    distance: float = 2.0,
    holding: float = 120.0,
) -> Call:
    """Convenience constructor used across test modules."""
    bandwidth_by_class = {
        ServiceClass.TEXT: 1,
        ServiceClass.VOICE: 5,
        ServiceClass.VIDEO: 10,
    }
    return Call(
        service=service,
        bandwidth_units=bandwidth if bandwidth is not None else bandwidth_by_class[service],
        call_type=call_type,
        user_state=UserState(speed_kmh=speed, angle_deg=angle, distance_km=distance),
        holding_time_s=holding,
    )


@pytest.fixture
def call_factory():
    """Expose :func:`make_call` as a fixture."""
    return make_call
