"""Python-level and C-level call counts for the frame budgets.

``count_calls(net, until)`` runs the network under ``sys.setprofile`` and
returns how often each code object was entered, and how often each C
function (``min``, ``deque.append``, ...) was called by name: a builtin
call opens no frame, so the frame tally alone cannot see it.  A type
call (``int(x)``, ``float(x)``) raises no profile event at all and shows
in neither.  ``top_calls`` renders the largest entries of both per unit
of work, so a budget that fails names the calls that grew.
"""

import sys
from collections import Counter


def count_calls(net, until: float):
    """``(frames, builtins)`` made by ``net.run(until=until)``: calls per
    code object, and C calls per function name."""
    frames: Counter = Counter()
    builtins: Counter = Counter()

    def count(frame, event, arg):
        if event == "call":
            frames[frame.f_code] += 1
        elif event == "c_call":
            builtins[getattr(arg, "__qualname__", arg.__name__)] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        net.run(until=until)
    finally:
        sys.setprofile(previous)
    return frames, builtins


def top_calls(
    tally: Counter, builtins: Counter, per: int, unit: str, n: int = 10
) -> str:
    """The ``n`` largest entries of ``tally`` and of ``builtins`` as calls
    per ``unit``, of which the measured window saw ``per``."""
    total = sum(tally.values())
    lines = [f"{total} calls, {total / per:.2f} per {unit}; largest per {unit}:"]
    for code, calls in tally.most_common(n):
        where = f"{code.co_filename.rsplit('/', 2)[-1]}:{code.co_firstlineno}"
        name = getattr(code, "co_qualname", code.co_name)
        lines.append(f"  {calls / per:6.2f}  {name}  ({where})")
    total = sum(builtins.values())
    lines.append(f"{total} C calls, {total / per:.2f} per {unit}; largest per {unit}:")
    for name, calls in builtins.most_common(n):
        lines.append(f"  {calls / per:6.2f}  {name}")
    return "\n".join(lines)
