#!/usr/bin/env bash
# Rewrite the paper-table goldens (bench/golden/<bench>.txt) from the bench
# binaries of a build tree:
#
#   tools/bless_goldens.sh [path/to/build/bench]
#
# Each binary runs with --benchmark_filter='^$', so it prints its artifact
# tables and times nothing; stdout becomes the golden, stderr (host and
# build facts) is discarded.  The `paper` ctest label compares the same
# stdout against these files.  A change that re-blesses a golden lists each
# moved table in CHANGES.md and explains the move in EXPERIMENTS.md.
set -euo pipefail

BIN=$(cd "${1:-build/bench}" && pwd)
REPO=$(cd "$(dirname "$0")/.." && pwd)
OUT="$REPO/bench/golden"
mkdir -p "$OUT"

count=0
for exe in "$BIN"/bench_*; do
  [ -f "$exe" ] && [ -x "$exe" ] || continue
  name=$(basename "$exe")
  "$exe" --benchmark_filter='^$' > "$OUT/$name.txt" 2> /dev/null
  count=$((count + 1))
done
echo "blessed $count goldens into $OUT"
