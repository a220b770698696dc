"""Exception types for the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.eventloop.Process.interrupt`.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class StopProcess(BaseException):
    """Raised inside a process to terminate it immediately with a value.

    Derives from BaseException so that agent code catching a broad
    ``except Exception`` (the Figure-4 "Unable to reach" pattern) cannot
    accidentally swallow the successful-``go`` termination signal.
    """

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EventAlreadyTriggered(SimulationError):
    """An event was triggered (succeed/fail) more than once."""
