#!/usr/bin/env bash
# Every behaviour pin, checked or regenerated by one command.
#
#   scripts/goldens.sh --check    # recompute every pin and diff it
#   scripts/goldens.sh --write    # rewrite the pins that moved
#
# The pins are tests/golden/{digests,metrics,telemetry}.txt, the test
# literals in tests/golden/literals.json and results.json; the registry
# that maps each to its producer is tests/golden/pins.py.  `--check`
# exits 1 naming each pin that moved; write only for an intended change,
# and review the diff.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python -m tests.golden.pins "$@"
