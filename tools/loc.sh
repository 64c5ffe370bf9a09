#!/usr/bin/env sh
# Lines of OCaml source (.ml + .mli) per library under lib/, plus the
# bin and bench drivers (bench counted recursively), so "least code" is
# a tracked number.  Run from anywhere:
#
#   tools/loc.sh
#
# Prints one "<dir> <lines>" row per directory, then the lib total and
# the grand total over lib, bin and bench, then a "knobs" row: the
# number of optional arguments (?label:) the library interfaces
# (lib/*/*.mli) declare, so the option count is tracked beside the
# line count.

set -eu
cd "$(dirname "$0")/.."

count() {
  find "$@" -type f \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l | tr -d ' '
}

lib_total=0
for d in lib/*/; do
  d=${d%/}
  n=$(count "$d")
  lib_total=$((lib_total + n))
  printf '%-16s %6d\n' "$d" "$n"
done
printf '%-16s %6d\n' "lib (total)" "$lib_total"
total=$lib_total
for d in bin bench; do
  n=$(count "$d")
  total=$((total + n))
  printf '%-16s %6d\n' "$d" "$n"
done
printf '%-16s %6d\n' "total" "$total"
knobs=$(cat lib/*/*.mli | grep -o "?[a-z_][A-Za-z0-9_']*:" | wc -l | tr -d ' ')
printf '%-16s %6d\n' "knobs" "$knobs"
