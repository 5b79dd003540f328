#!/bin/sh
# Fails when a sim::msec/sec/usec literal appears in src/rpc, src/group or
# src/dir outside a constexpr declaration: every protocol wait is named
# once, in the layer that owns it (DESIGN.md §1, "Protocol waits").
#
#     tests/lint_named_waits.sh [SRC_DIR]    # default: this repo's src/
src=${1:-$(dirname "$0")/../src}
for d in rpc group dir; do
  if [ ! -d "$src/$d" ]; then
    echo "no such directory: $src/$d" >&2
    exit 2
  fi
done
hits=$(grep -rnE 'sim::(msec|sec|usec)\(' "$src/rpc" "$src/group" "$src/dir" |
  grep -v constexpr)
if [ -n "$hits" ]; then
  echo "inline protocol waits; name each as a constexpr in its layer:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "no inline protocol waits"
