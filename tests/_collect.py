"""A bus subscriber that keeps what it is called with, for tests to read,
and a way to subscribe one to the bus of every simulation that runs."""

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, NamedTuple, Optional

from repro.sim.engine import RunObserver, add_run_observer, remove_run_observer


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


@contextmanager
def every_run(fn: Any, kinds: Optional[Iterable[str]] = None) -> Iterator[None]:
    """Subscribe ``fn`` to the bus of every simulation that runs in the
    block, when it first runs: for a network the test cannot name."""

    class Join(RunObserver):
        def run_begin(self, sim, until):
            if sim.bus not in buses:
                buses.add(sim.bus)
                sim.bus.subscribe(fn, kinds=kinds)

    buses: set = set()
    observer = Join()
    add_run_observer(observer)
    try:
        yield
    finally:
        remove_run_observer(observer)
