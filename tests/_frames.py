"""Python-level call counts for the frame budgets.

``count_calls(net, until)`` runs the network under ``sys.setprofile`` and
returns how often each code object was entered; ``top_calls`` renders the
largest entries per unit of work, so a budget that fails names the frames
that grew.
"""

import sys
from collections import Counter


def count_calls(net, until: float) -> Counter:
    """Calls per code object made by ``net.run(until=until)``."""
    tally: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            tally[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        net.run(until=until)
    finally:
        sys.setprofile(previous)
    return tally


def top_calls(tally: Counter, per: int, unit: str, n: int = 10) -> str:
    """The ``n`` largest entries of ``tally`` as calls per ``unit``, of
    which the measured window saw ``per``."""
    total = sum(tally.values())
    lines = [f"{total} calls, {total / per:.2f} per {unit}; largest per {unit}:"]
    for code, calls in tally.most_common(n):
        where = f"{code.co_filename.rsplit('/', 2)[-1]}:{code.co_firstlineno}"
        name = getattr(code, "co_qualname", code.co_name)
        lines.append(f"  {calls / per:6.2f}  {name}  ({where})")
    return "\n".join(lines)
