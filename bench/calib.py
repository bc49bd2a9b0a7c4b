"""Speed calibration for every timed interval.

The benchmark's host is shared: its speed swings by tens of percent over a
few seconds, and the ops feel that alike with similar work done at the same
moment.  So each timed interval is paired with a fixed reference task of
the same kind and reported at reference speed, ``raw * REF / reference``:

* in-process work (hecke and rfactor ops and set-up) with ``loop_time()``,
  a pure-Python loop run in the same process around the interval;
* a process launch (a CLI call, a start-up probe) with a bare interpreter
  launch made just before it.

REF and BARE_REF are the reference tasks' times on a quiet core of the
reference machine, so there the scaled times read as quiet wall times.
Raw wall times are kept in the report beside them.
"""

import time

REF = 0.0011  # seconds: loop_time() on a quiet core (x86-64, Python 3.11)
BARE_REF = 0.042  # seconds: `python3 bench/launch.py --bare` on the same


def loop_time() -> float:
    start = time.perf_counter()
    table: dict = {}
    for i in range(5000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def scale(raw: float, loop: float) -> float:
    """raw at reference speed, given the loop time measured with it."""
    return raw * REF / loop
