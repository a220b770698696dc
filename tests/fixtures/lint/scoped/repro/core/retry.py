"""ASY001 positive fixture: blocking calls inside a transport-clean module.

The package markers around this file make the analyzer infer the
module name ``repro.core.retry``, which is in ASY001_SCOPES.
"""

import time


def settle():
    time.sleep(0.1)                          # finding: blocking sleep
    time.sleep(0.2)  # lint: disable=ASY001 - fixture suppression
