#!/usr/bin/env bash
# Determinism gate: run a command twice and require identical stdout.
#
#   scripts/twice.sh OUT -- CMD [ARG...]
#
# The first run's stdout is left in OUT (the artifact); the second is
# compared with it and discarded.  Exits non-zero if either run fails
# or the two outputs differ (the diff is printed).
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$2" != "--" ]; then
    echo "usage: $0 OUT -- CMD [ARG...]" >&2
    exit 2
fi
out="$1"
shift 2

again="$(mktemp)"
trap 'rm -f "$again"' EXIT

"$@" > "$out"
"$@" > "$again"
diff "$out" "$again"
