"""Wall-clock timing of pipeline stages, for the CLI's ``--stats`` flag.

Timings measure one run on one machine, so they go to stdout only and never
into a report, whose bytes depend on the input, seed and flags alone.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Stage:
    """One timed stage; ``detail`` is what the stage's body reports about
    its outcome (a verdict, its route and iteration count)."""

    name: str
    seconds: float = 0.0
    detail: str = ""


class StageTimes:
    """The timed stages of one run, in the order they finished."""

    def __init__(self):
        self.stages: list[Stage] = []

    @contextmanager
    def stage(self, name):
        """Time the body as one stage; the body may set the yielded stage's
        ``detail``."""
        entry = Stage(name)
        start = time.perf_counter()
        try:
            yield entry
        finally:
            entry.seconds = time.perf_counter() - start
            self.stages.append(entry)

    def lines(self) -> list[str]:
        return [f"{s.seconds * 1e3:10.2f} ms  {s.name}" + (f": {s.detail}" if s.detail else "")
                for s in self.stages]
