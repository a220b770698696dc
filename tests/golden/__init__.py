"""The behaviour pins: committed files that hold what the program does.

Each file in this directory, and ``results.json`` at the repo root, is a
pure function of the code.  :mod:`tests.golden.pins` maps each one to
the producer that recomputes it, and one command checks or rewrites
them all::

    scripts/goldens.sh --check    # recompute every pin, diff, exit 1 if one moved
    scripts/goldens.sh --write    # rewrite the pins that moved, nothing else

``literals.json`` holds the single figures tests assert (report
digests, an instant, the quickstart's byte count), so that no pinned
value lives in a test's source.
"""

import json
import os

DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(DIR))

#: What a golden test's failure message tells its reader to do.
REGENERATE = ("if the change is intended, regenerate every pin with "
              "`scripts/goldens.sh --write` and review the diff")


def path(name: str) -> str:
    """The committed pin ``name`` in this directory."""
    return os.path.join(DIR, name)


def literal(name: str):
    """The value ``literals.json`` pins under ``name``."""
    with open(path("literals.json"), encoding="utf-8") as handle:
        return json.load(handle)[name]
