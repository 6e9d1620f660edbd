#!/bin/sh
# Passes when every COMMAND prints at least one "<timeout>" cell. Run it
# with a per-run timeout that no run can meet (DIBS_RUN_TIMEOUT_SEC): a bench
# must mark a timed-out row, never print it as zeros.
#
# Usage: expect_timeout_cells.sh COMMAND...
status=0
for bench in "$@"; do
  if ! "$bench" 2> /dev/null | grep -q "<timeout>"; then
    echo "expect_timeout_cells: $bench printed no <timeout> cell"
    status=1
  fi
done
exit "$status"
