"""One generic name → item registry for every catalogue in the repo.

Scenarios, faults, sweeps, experiments and directory backends all
register into a :class:`Registry`.  The registry owns the shared
surface — register, get, names, specs, duplicate and unknown-name
errors — and each catalogue supplies only what differs:

* ``kind`` — the label its error messages use (``"scenario"``);
* ``error`` — the exception class it raises;
* ``spec`` — how to reach an item's spec, the object carrying ``name``
  and, optionally, ``aliases`` (identity when the item *is* the spec);
* ``validate`` — the catalogue's own checks, run before an item is
  keyed; it raises ``error`` to reject the item;
* ``load`` — imports the modules that register into it, for
  catalogues declared away from the registry module.  It runs once,
  at the first lookup, never at import.

Every key (the name and each alias) must be new: a key that collides
with an earlier registration, or with another key of the same spec,
is rejected.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


def _identity(item: Any) -> Any:
    return item


def _accept(item: Any) -> None:
    """Default validate hook: every item is acceptable."""


class Registry(Generic[T]):
    """Name (and alias) → item registry with a per-kind validate hook."""

    def __init__(
        self,
        kind: str,
        error: type[Exception],
        *,
        spec: Callable[[T], Any] = _identity,
        validate: Callable[[T], None] = _accept,
        load: Optional[Callable[[], object]] = None,
    ) -> None:
        self.kind = kind
        self.error = error
        self._spec = spec
        self._validate = validate
        self._load = load
        self._items: dict[str, T] = {}
        self._aliases: dict[str, str] = {}

    def _ensure_loaded(self) -> None:
        if self._load is not None:
            load, self._load = self._load, None
            load()

    def fresh(self) -> Registry[T]:
        """An empty registry with this one's kind, error and hooks.

        Lets a caller exercise a catalogue's validation on probe items
        without adding them to the process-wide registry.
        """
        return Registry(
            self.kind, self.error, spec=self._spec, validate=self._validate
        )

    def register(self, item: T) -> T:
        """Validate ``item`` and add it under its spec name and aliases.

        Returns ``item``, so ``register`` doubles as a class decorator.
        """
        self._validate(item)
        spec = self._spec(item)
        keys: tuple[str, ...] = (spec.name, *getattr(spec, "aliases", ()))
        for i, key in enumerate(keys):
            if key in self._items or key in self._aliases or key in keys[:i]:
                raise self.error(f"duplicate {self.kind} name {key!r}")
        self._items[spec.name] = item
        for alias in keys[1:]:
            self._aliases[alias] = spec.name
        return item

    def get(self, name: str) -> T:
        """Resolve a name or alias to its item."""
        self._ensure_loaded()
        try:
            return self._items[self._aliases.get(name, name)]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """Registered names (aliases excluded), sorted."""
        self._ensure_loaded()
        return sorted(self._items)

    def specs(self) -> list[Any]:
        """Every item's spec, in :meth:`names` order."""
        return [self._spec(self._items[name]) for name in self.names()]

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._items or name in self._aliases

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._items)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())
