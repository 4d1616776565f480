"""Backward-compatible ``statistics`` views over registry metrics.

The seed code exposed an ad-hoc ``statistics`` dict on each component
(``UpdateManager``, ``UpdateQueue``, ``LtapGateway``, the filters,
``LdapServer``); tests, benchmarks and examples read them — some with
exact dict equality.  The metrics registry is now the single source of
truth, and ``statistics`` became a read-only live view that *derives* the
legacy keys from registry metrics, so every pre-existing consumer keeps
working unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable

__all__ = ["StatsView"]


def _as_int(value: float) -> int | float:
    """Counters are floats internally; legacy consumers expect ints."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class StatsView(Mapping):
    """A read-only, dict-like live view: key → callable producing a value.

    Compares equal to a plain dict with the same items, and renders like
    one, so seed assertions such as
    ``queue.statistics == {"enqueued": 1, "processed": 1}`` and
    ``print(system.um.statistics)`` behave exactly as before.
    """

    def __init__(self, getters: dict[str, Callable[[], float]]):
        self._getters = dict(getters)

    def __getitem__(self, key: str) -> int | float:
        return _as_int(self._getters[key]())

    def __iter__(self):
        return iter(self._getters)

    def __len__(self) -> int:
        return len(self._getters)

    def __eq__(self, other) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    # Mapping deliberately unhashable once __eq__ is defined.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(dict(self))
