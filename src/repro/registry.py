"""String-keyed plugin registries shared by the whole package.

The unified scenario API (:mod:`repro.api`) replaces the string literals
that used to be duplicated across the CLI, the experiment layer and the
controller configs with *registries*: small ordered name → object tables
with decorator-based registration, explicit collision errors and
"unknown key" messages that list what *is* available.

The class is deliberately dependency-free so low-level modules
(:mod:`repro.fuzzy.controller`, :mod:`repro.simulation.executor`) can host
their own registries without importing the high-level API package.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

__all__ = ["Registry", "RegistryError"]

T = TypeVar("T")


class RegistryError(LookupError):
    """Raised on unknown keys and on conflicting registrations."""


class Registry(Generic[T]):
    """An ordered, string-keyed table of named plugins.

    Parameters
    ----------
    kind:
        Human-readable description of what the registry holds
        (``"controller"``, ``"executor"``, ...); used in error messages.

    Registration preserves insertion order — ``names()`` is the canonical
    ordering for CLI ``choices`` lists and default selections.  Aliases
    resolve through :meth:`get` but never appear in ``names()``.
    """

    def __init__(self, kind: str):
        self._kind = kind
        self._entries: dict[str, T] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self._kind

    def register(
        self,
        name: str,
        obj: T | None = None,
        *,
        aliases: tuple[str, ...] = (),
        replace: bool = False,
    ) -> Callable[[T], T] | T:
        """Register ``obj`` under ``name`` (direct call or decorator).

        ``register("x", obj)`` registers immediately; ``@register("x")``
        registers the decorated object and returns it unchanged.  Duplicate
        names (or aliases colliding with names) raise
        :class:`RegistryError` unless ``replace=True``.
        """
        if obj is None:

            def decorator(decorated: T) -> T:
                self.register(name, decorated, aliases=aliases, replace=replace)
                return decorated

            return decorator
        if not replace:
            for key in (name, *aliases):
                if key in self._entries or key in self._aliases:
                    raise RegistryError(
                        f"{self._kind} {key!r} is already registered; "
                        f"pass replace=True to override"
                    )
        # replace=True replaces *this* name only; an alias shadowing a
        # different primary entry is always a conflict.
        for alias in aliases:
            if alias in self._entries and alias != name:
                raise RegistryError(
                    f"alias {alias!r} collides with the registered "
                    f"{self._kind} {alias!r}"
                )
        self._aliases.pop(name, None)
        self._entries[name] = obj
        for alias in aliases:
            self._aliases[alias] = name
        return obj

    def get(self, name: str) -> T:
        """Look up a registered object, resolving aliases."""
        key = self._aliases.get(name, name)
        try:
            return self._entries[key]
        except KeyError:
            raise RegistryError(
                f"unknown {self._kind} {name!r}; available: {list(self._entries)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Primary registered names, in registration order (no aliases)."""
        return tuple(self._entries)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self._kind!r}, names={list(self._entries)})"
