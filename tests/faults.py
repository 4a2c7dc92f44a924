"""Fault injection for the failure tests.

Faults enter through ``WorkerState.next_batch``, each worker's own batch
stream, which every way of training a block draws from; no test replaces how
a worker trains its block.
"""

import threading
import time

from blocktrain.cluster import WorkerState


def inject_faults(monkeypatch, faults, *, slow=None):
    """Patch ``WorkerState.next_batch`` so that every draw of worker ``i``
    raises ``faults[i]`` (the same object each time). Worker ``slow`` first
    sleeps 0.2 seconds on its first draw, then sets the returned event:
    a test orders two slabs' replies with it and sees whether the slow one
    had replied. Every other draw is the worker's own."""
    draw = WorkerState.next_batch
    woke = threading.Event()

    def next_batch(self):
        if self.index == slow and not woke.is_set():
            time.sleep(0.2)
            woke.set()
        if self.index in faults:
            raise faults[self.index]
        return draw(self)

    monkeypatch.setattr(WorkerState, "next_batch", next_batch)
    return woke
