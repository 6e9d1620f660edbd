#!/bin/sh
# Passes when COMMAND exits 0 and its stdout equals the locked table FILE
# byte for byte. On a mismatch it prints the unified diff, locked table
# first, so the failure shows which cell moved.
#
# Usage: expect_table.sh FILE COMMAND [ARGS...]
want="$1"
shift
got="$(mktemp)" || exit 1
trap 'rm -f "$got"' EXIT
if ! "$@" > "$got"; then
  echo "expect_table: '$*' failed"
  exit 1
fi
if ! diff -u "$want" "$got"; then
  echo "expect_table: '$*' no longer prints $want"
  exit 1
fi
