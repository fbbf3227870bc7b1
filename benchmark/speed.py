"""Interpreter speed, sampled while the timed operations run.

The machine the benchmark runs on shares its cores with other work: the
same pure-Python loop takes about a third longer in some stretches of
seconds than in others, whatever the program does.  A fixed reference loop,
timed every ``INTERVAL`` seconds of the timed phase from a ``SIGALRM``
handler (so that long operations are sampled too), measures that speed.
``run.py`` takes the loop's time out of the operation's and scales the
operations' seconds by ``REFERENCE_SECONDS`` over the loop's mean duration
during them: the rates it reports are rates at one fixed interpreter speed.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL = 0.2
LOOP_STEPS = 24000
# Duration of the reference loop at the reference speed: about the fastest
# it runs on the 2-core container the README's figures come from.
REFERENCE_SECONDS = 0.0025


def slowdown(loop_seconds: float, loops: int) -> float:
    """Mean duration of ``loops`` reference loops over the reference duration."""
    return loop_seconds / loops / REFERENCE_SECONDS


def reference_loop() -> float:
    s = 0.0
    for i in range(1, LOOP_STEPS):
        s += math.sqrt(i) * 0.5 / i
    return s


class SpeedSampler:
    """Times ``reference_loop`` every ``INTERVAL`` seconds while entered.

    Outside the ``with`` block ``sample`` can be called directly, as the
    traced run does next to each operation, where a handler firing inside
    an operation would add the loop's time to the spans.
    """

    def __init__(self):
        self.loop_seconds = 0.0
        self.loops = 0
        self._previous = None

    def sample(self, *_signal) -> None:
        """Time the reference loop once; also the ``SIGALRM`` handler."""
        start = time.perf_counter()
        reference_loop()
        self.loop_seconds += time.perf_counter() - start
        self.loops += 1

    def mark(self) -> tuple[float, int]:
        """Loop seconds and loop count so far."""
        return self.loop_seconds, self.loops

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
