"""The one named-registry type: models, scenarios, families, lint rules.

The library addresses contention models, scenario specs, scenario
families and lint rules by name.  Each kind keeps an ordered
name → item :class:`Registry`; the kinds differ in three things only —
the error class a misuse raises, the word messages call an item, and
the check an item must pass to be registered — and those are the
constructor's arguments.  Every kind's module builds its process-wide
default registry from its builtins and delegates its module-level
``register_*`` / ``get_*`` / ``temporary_*`` functions to it.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Generic, Iterable, Iterator, Protocol, TypeVar

from repro.errors import ReproError


class Named(Protocol):
    """Anything registered: it carries its registry key."""

    name: str


T = TypeVar("T", bound=Named)


class Registry(Generic[T]):
    """An ordered name → item map.

    Args:
        kind: what messages call an item (``"model"``, ``"lint rule"``).
        error: the :class:`~repro.errors.ReproError` subclass every
            misuse raises.
        check: returns why an item cannot be registered, or ``None``
            when it can.
        items: initial registrations, in order.
    """

    def __init__(
        self,
        kind: str,
        error: type[ReproError],
        check: Callable[[object], str | None],
        items: Iterable[T] = (),
    ) -> None:
        self._kind = kind
        self._error = error
        self._check = check
        self._items: dict[str, T] = {}
        for item in items:
            self.register(item)

    def register(self, item: T, *, replace: bool = False) -> T:
        """Add an item under its name; re-registration needs ``replace``."""
        problem = self._check(item)
        if problem is not None:
            raise self._error(problem)
        if item.name in self._items and not replace:
            raise self._error(
                f"{self._kind} {item.name!r} is already registered "
                "(pass replace=True to overwrite)"
            )
        self._items[item.name] = item
        return item

    def unregister(self, name: str) -> None:
        if name not in self._items:
            raise self._error(f"{self._kind} {name!r} is not registered")
        del self._items[name]

    def get(self, name: str) -> T:
        try:
            return self._items[name]
        except KeyError as exc:
            raise self._error(
                f"unknown {self._kind} {name!r}; "
                f"registered: {', '.join(self.names()) or '(none)'}"
            ) from exc

    def names(self) -> tuple[str, ...]:
        return tuple(self._items)

    def specs(self) -> tuple[T, ...]:
        return tuple(self._items.values())

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items.values())

    @contextlib.contextmanager
    def temporary(
        self, *items: T, replace: bool = False
    ) -> Iterator["Registry[T]"]:
        """Scope registrations to a ``with`` block.

        Snapshots the registry, registers ``items`` (more can be added
        inside the block) and restores the exact prior contents on
        exit, exception or not — so a test or example that registers
        an item cannot leak it into everything that runs later in the
        process.  The ``registry-leak`` lint rule flags tests that
        mutate a default registry outside one of these scopes.
        """
        snapshot = dict(self._items)
        try:
            for item in items:
                self.register(item, replace=replace)
            yield self
        finally:
            self._items.clear()
            self._items.update(snapshot)
