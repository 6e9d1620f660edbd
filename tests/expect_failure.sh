#!/bin/sh
# Passes when COMMAND fails (nonzero exit or a signal) and its combined
# stdout/stderr contains PATTERN, a fixed string. For ctests that pin how a
# binary rejects bad input: ctest's own PASS_REGULAR_EXPRESSION counts a
# process that died by a signal (an uncaught exception) as failed.
#
# Usage: expect_failure.sh PATTERN COMMAND [ARGS...]
pattern="$1"
shift
if out="$("$@" 2>&1)"; then
  printf '%s\n' "$out"
  echo "expect_failure: '$*' succeeded, but it must fail"
  exit 1
fi
printf '%s\n' "$out"
case "$out" in
  *"$pattern"*) exit 0 ;;
esac
echo "expect_failure: output lacks '$pattern'"
exit 1
