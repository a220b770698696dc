"""Helper module *outside* ASY001's scope (not transport-clean).

Blocking here is legal in isolation — a command-line tool may wait on
the host — but transport-clean code must not reach it.
"""

import time


def pause():  # ok here: repro.util is outside ASY001's scope
    return time.sleep(0.5)


def deep_pause():  # one more hop for the witness chain
    return pause()
