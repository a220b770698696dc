"""ASY001 negative fixture: ``repro.other`` is not transport-clean, so a
blocking call here is not a finding."""

import time


def settle():
    time.sleep(0.1)
