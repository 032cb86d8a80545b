#!/usr/bin/env bash
# Prints the .cpp/.hpp line totals of src/, tests/ and bench/ (tracked and
# untracked files alike, build trees excluded), one "<dir> <lines>" row
# each plus a total — the numbers a change reports as its net source-line
# delta. Run it before and after a change and subtract.
#
#   scripts/src_lines.sh            # from anywhere inside the repo
#   scripts/src_lines.sh <root>     # count another checkout
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
for dir in src tests bench; do
  lines=0
  if [[ -d "$root/$dir" ]]; then
    lines=$(find "$root/$dir" -type f \( -name '*.cpp' -o -name '*.hpp' \) \
              -print0 | xargs -0 -r cat | wc -l)
  fi
  printf '%-6s %8d\n' "$dir" "$lines"
  total=$((total + lines))
done
printf '%-6s %8d\n' total "$total"
