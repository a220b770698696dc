"""The pre-optimisation event kernel: the oracle ``Kernel``'s dispatch
loop is tested against.

Transcribed from the pre-optimisation eventloop and moved here unchanged
from the retired perf harness: no ``__slots__`` (every event carries an
instance ``__dict__``), ``Timeout._fire`` delegating to
``_run_callbacks``, and a ``run()`` loop that peeks the heap and calls
``step()`` once per event.  Only what a timeout/callback schedule
exercises is replicated; processes/AnyOf/AllOf are not.
"""

import heapq
import random
from typing import List

_B_PENDING = object()


class _BaselineEvent:
    def __init__(self, kernel):
        self.kernel = kernel
        self.callbacks = []
        self._value = _B_PENDING
        self._exception = None

    def _run_callbacks(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks or ():
            callback(self)

    def _fire(self):
        self._run_callbacks()


class _BaselineTimeout(_BaselineEvent):
    def __init__(self, kernel, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(kernel)
        self.delay = delay
        self._deferred_value = value
        kernel._post(self, delay=delay)

    def _fire(self):
        if self._value is _B_PENDING and self._exception is None:
            self._value = self._deferred_value
        self._run_callbacks()


class _BaselineTelemetry:
    enabled = False


class _BaselineKernel:
    def __init__(self):
        self._now = 0.0
        self._heap: List[tuple] = []
        self._sequence = 0
        self.processed_events = 0
        self.telemetry = _BaselineTelemetry()

    @property
    def now(self):
        return self._now

    def _post(self, event, delay=0.0):
        heapq.heappush(self._heap, (self._now + delay, self._sequence, event))
        self._sequence += 1

    def timeout(self, delay, value=None):
        return _BaselineTimeout(self, delay, value)

    def step(self):
        when, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise RuntimeError("event scheduled in the past")
        self._now = when
        self.processed_events += 1
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            metrics.inc("kernel.events_dispatched")
            metrics.set_gauge("kernel.heap_depth", len(self._heap))
        event._fire()

    def run(self):
        while self._heap:
            when = self._heap[0][0]  # noqa: F841 - pre-PR peek, kept verbatim
            self.step()
        return self._now


def _timer_delays(n_events: int, seed: int) -> List[float]:
    """Shuffled delays, so both kernels pay real sift-downs."""
    rng = random.Random(seed)
    return [rng.random() * 100.0 for _ in range(n_events)]
