#!/usr/bin/env bash
# The digest table: one `command<TAB>sha256[:16]` line per deterministic
# CLI document, in a fixed order.
#
#   scripts/digests.sh | diff - tests/golden/digests.txt
#
# Every document below is a pure function of its arguments, so the table
# is the repo's behaviour at the CLI in twenty-odd lines: a change that
# claims "no document moved" shows an empty diff, and one that moves a
# document shows which.  The chaos / partition / crashtest variants are
# read from each command's own `--list`, so a new plan or scenario
# appears here (and fails the diff until the golden is regenerated)
# without editing this file.  Exits non-zero if any command fails.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

digest() {
    local sum
    # pipefail: a failing command fails the assignment, and `set -e` exits.
    sum="$(python -m repro "$@" | sha256sum | cut -c1-16)"
    printf '%s\t%s\n' "$*" "$sum"
}

# The variant names a scenario command's `--list` prints (two-space
# indented `name  description` rows under a heading).
variants() {
    python -m repro "$1" --list | awk '/^  /{print $1}'
}

digest metrics
digest report
digest overload --seed 7
digest overload --seed 7 --mode ungoverned
for plan in $(variants chaos); do
    digest chaos --seed 7 --plan "$plan"
done
for scenario in $(variants partition); do
    digest partition --seed 7 --scenario "$scenario"
done
for scenario in $(variants crashtest); do
    digest crashtest --seed 7 --scenario "$scenario"
done
digest suite run examples/ci.suite.yaml
digest suite run examples/smoke.suite.yaml --seed 7
digest suite run benchmarks/e2e/durable.suite.yaml
digest experiments R2
digest experiments E1 F5 F3
