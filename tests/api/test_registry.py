"""Tests for the generic Registry and the concrete API registries."""

from __future__ import annotations

import pytest

from repro.api import (
    ABLATIONS,
    ARTIFACTS,
    CONTROLLERS,
    DEFAULT_NETWORK_CONTROLLERS,
    EXECUTORS,
    FIGURES,
    SCENARIOS,
    SURFACES,
    controller_factory,
)
from repro.cac import FuzzyAdmissionControlSystem
from repro.experiments import experiment_ids
from repro.registry import Registry, RegistryError


class TestGenericRegistry:
    def test_register_and_get(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1)
        registry.register("two", 2)
        assert registry.get("one") == 1
        assert registry.names() == ("one", "two")
        assert "one" in registry and "three" not in registry
        assert len(registry) == 2

    def test_decorator_registration_returns_object_unchanged(self):
        registry: Registry[object] = Registry("thing")

        @registry.register("fn")
        def fn():
            return 42

        assert fn() == 42
        assert registry.get("fn") is fn

    def test_collision_raises(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("one", 11)
        # the original registration survives
        assert registry.get("one") == 1

    def test_alias_collision_raises(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1, aliases=("uno",))
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("uno", 2)

    def test_replace_overrides(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1)
        registry.register("one", 11, replace=True)
        assert registry.get("one") == 11
        assert registry.names() == ("one",)

    def test_replace_cannot_shadow_another_entry_via_alias(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1)
        registry.register("two", 2)
        with pytest.raises(RegistryError, match="collides"):
            registry.register("two", 22, aliases=("one",), replace=True)
        # the victim entry survives untouched
        assert registry.get("one") == 1
        assert registry.names() == ("one", "two")

    def test_unknown_key_lists_available(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1)
        with pytest.raises(RegistryError, match=r"unknown number 'three'.*one"):
            registry.get("three")

    def test_aliases_resolve_but_stay_hidden(self):
        registry: Registry[int] = Registry("number")
        registry.register("one", 1, aliases=("uno", "eins"))
        assert registry.get("uno") == 1
        assert registry.get("eins") == 1
        assert registry.names() == ("one",)
        assert "uno" in registry

    def test_iteration_preserves_registration_order(self):
        registry: Registry[int] = Registry("number")
        for index, name in enumerate(["c", "a", "b"]):
            registry.register(name, index)
        assert list(registry) == ["c", "a", "b"]


class TestConcreteRegistries:
    def test_controllers_contain_all_admission_policies(self):
        assert set(CONTROLLERS.names()) >= {
            "FACS",
            "SCC",
            "CS",
            "GuardChannel",
            "Threshold",
        }
        assert tuple(CONTROLLERS.names()[:3]) == DEFAULT_NETWORK_CONTROLLERS

    def test_controller_factory_builds_fresh_instances(self):
        factory = controller_factory("FACS")
        first, second = factory(), factory()
        assert isinstance(first, FuzzyAdmissionControlSystem)
        assert first is not second

    def test_unknown_controller_raises(self):
        with pytest.raises(RegistryError, match="unknown controller 'Oracle'"):
            controller_factory("Oracle")

    def test_executor_registry_names_and_aliases(self):
        assert EXECUTORS.names() == ("serial", "process", "thread")
        assert EXECUTORS.get("parallel") is EXECUTORS.get("process")
        assert EXECUTORS.get("threads") is EXECUTORS.get("thread")

    def test_scenarios_cover_every_registered_experiment(self):
        # Every paper-artifact experiment has a default scenario; the
        # scenario registry may also hold scenario-only ids (trace-arrivals,
        # net-sweep-coupled-sharded) that are not paper artifacts.
        assert set(experiment_ids()) <= set(SCENARIOS.names())

    def test_dispatch_registries_cover_their_ids(self):
        assert set(FIGURES.names()) == {
            "fig7-speed",
            "fig8-angle",
            "fig9-distance",
            "fig10-facs-vs-scc",
        }
        assert set(ARTIFACTS.names()) == {
            "table1-frb1",
            "table2-frb2",
            "fig5-flc1-mf",
            "fig6-flc2-mf",
        }
        assert set(SURFACES.names()) == {"flc1", "flc2"}
        assert set(ABLATIONS.names()) == {"defuzz", "threshold", "baselines"}
