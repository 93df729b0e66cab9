"""A bus subscriber that keeps what it is called with, for tests to read."""

from typing import Any, Dict, NamedTuple


class Seen(NamedTuple):
    """One delivery: the subscriber call's ``(kind, t, src, fields)``."""

    kind: str
    t: float
    src: str
    fields: Dict[str, Any]


class Collector(list):
    """A list of :class:`Seen`; subscribe the collector itself."""

    def __call__(self, kind: str, t: float, src: str, fields: Dict[str, Any]) -> None:
        self.append(Seen(kind, t, src, fields))
