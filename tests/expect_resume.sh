#!/bin/sh
# Passes when COMMAND, run once with DIBS_JOURNAL pointed into a fresh
# temporary directory and again from that journal with DIBS_RESUME=1, exits
# 0 both times and prints the same stdout.
#
# Usage: expect_resume.sh COMMAND [ARGS...]
dir="$(mktemp -d)" || exit 1
trap 'rm -rf "$dir"' EXIT
if ! DIBS_JOURNAL="$dir/journal" "$@" > "$dir/first.txt"; then
  echo "expect_resume: '$*' failed"
  exit 1
fi
if ! DIBS_JOURNAL="$dir/journal" DIBS_RESUME=1 "$@" > "$dir/resumed.txt"; then
  echo "expect_resume: '$*' did not resume from its journal"
  exit 1
fi
if ! diff -u "$dir/first.txt" "$dir/resumed.txt"; then
  echo "expect_resume: the resumed run printed different tables"
  exit 1
fi
