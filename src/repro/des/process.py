"""Generator-based simulation processes.

A process wraps a Python generator that yields :class:`~repro.des.events.Event`
objects; the environment resumes the generator with the event's value when it
triggers.  Processes are themselves events, so processes can wait for one
another.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Process", "ProcessGenerator"]

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running simulation process.

    The process event triggers (with the generator's return value) when the
    generator finishes, or fails if the generator raises.
    """

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator as soon as the environment starts.
        self._start_event = Event(env)
        self._start_event.callbacks.append(self._resume)
        self._start_event.succeed()

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Callback invoked when the awaited event is processed."""
        if event.ok:
            self._step(event._value, is_exception=False)
        else:
            event.defuse()
            self._step(event._exception, is_exception=True)

    def _step(self, value: Any, is_exception: bool) -> None:
        try:
            if is_exception:
                next_event = self._generator.throw(value)
            else:
                next_event = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process failures become event failures
            self.fail(exc)
            return

        if not isinstance(next_event, Event):
            error = TypeError(
                f"process {self.name!r} yielded {next_event!r}, which is not an Event"
            )
            self.fail(error)
            return
        if next_event.env is not self.env:
            self.fail(
                ValueError(
                    f"process {self.name!r} yielded an event bound to a different environment"
                )
            )
            return
        if next_event.processed:
            # The event already ran its callbacks; resume immediately via a
            # zero-delay event to preserve run-to-completion semantics.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            immediate.succeed(next_event._value)
        else:
            next_event.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
