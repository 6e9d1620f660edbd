#!/bin/sh
# Passes when COMMAND, run with DIBS_TRACE_JSONL pointed into a fresh
# temporary directory, exits 0 and leaves exactly COUNT files there, named
# t.run0.jsonl ... t.run<COUNT-1>.jsonl: one trace per run, none shared.
#
# Usage: expect_run_traces.sh COUNT COMMAND [ARGS...]
count="$1"
shift
dir="$(mktemp -d)" || exit 1
trap 'rm -rf "$dir"' EXIT
if ! DIBS_TRACE_JSONL="$dir/t.jsonl" "$@" > /dev/null; then
  echo "expect_run_traces: '$*' failed"
  exit 1
fi
status=0
i=0
while [ "$i" -lt "$count" ]; do
  if [ ! -f "$dir/t.run$i.jsonl" ]; then
    echo "expect_run_traces: no t.run$i.jsonl"
    status=1
  fi
  i=$((i + 1))
done
found="$(ls "$dir" | wc -l)"
if [ "$found" -ne "$count" ]; then
  echo "expect_run_traces: want $count files, found $found:"
  ls "$dir"
  status=1
fi
exit "$status"
