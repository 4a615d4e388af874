#!/usr/bin/env bash
# Wall time of every test binary `cargo test` builds (the workspace's
# `default-members`), slowest first, so the tier-1 test budget stays
# visible. Each binary runs from its package directory, as `cargo test`
# runs it; a failing binary fails the script. Doc tests are not timed.
# Extra arguments go to `cargo test --no-run`.
#
#   scripts/test_times.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bins=$(cargo test -q --no-run --message-format=json "$@" |
  sed -n 's/.*"manifest_path":"\([^"]*\)".*"executable":"\([^"]*\)".*/\1 \2/p')
total=0
rows=""
while read -r manifest bin; do
  start=$(date +%s%N)
  (cd "$(dirname "$manifest")" && "$bin" -q >/dev/null)
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  total=$((total + ms))
  rows+="$ms $(basename "$(dirname "$manifest")")/$(basename "$bin")"$'\n'
done <<<"$bins"
printf '%s' "$rows" | sort -rn | awk '{ printf "%8.2f s  %s\n", $1 / 1000, $2 }'
awk -v t="$total" 'BEGIN { printf "%8.2f s  total\n", t / 1000 }'
