#!/usr/bin/env bash
# Prints the line count of every src/ module (its .cc and .h files) and the
# total, then the same count for bench/, using the formula the CHANGES.md
# entries quote:
#
#   find src -name '*.cc' -o -name '*.h' | xargs cat | wc -l
#
# Usage: scripts/sloc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.cc' -o -name '*.h' | xargs cat | wc -l
}

for module in src/*/; do
  printf '%-16s %6d\n' "$(basename "$module")" "$(count "$module")"
done
printf '%-16s %6d\n' total "$(count src)"
printf '%-16s %6d\n' bench "$(count bench)"
