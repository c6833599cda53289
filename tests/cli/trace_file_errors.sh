#!/bin/sh
# A trace file that cannot be read, holds a malformed line or a node id
# above the limit, or has too few nodes for the preset's caching sets is
# bad input: `dtncache` prints an `error:` line naming it and exits with
# status 2, as for any other bad flag value. `--trace-file` and `--trace-one` together are refused too:
# only one trace can drive the run. Each pattern must match the whole
# `error:` line after its prefix, so bad input has to be reported plainly,
# not as an internal check with its source location.
#
# usage: trace_file_errors.sh <dtncache>
set -u
status=0
check() {
  pattern=$1
  shift
  "$@" > /dev/null 2> trace_file_errors.err
  code=$?
  if [ "$code" -ne 2 ] || ! grep -q "^error: $pattern\$" trace_file_errors.err; then
    echo "FAIL $*: exit $code"
    cat trace_file_errors.err
    status=1
  else
    echo "ok   $*: exit 2: $(head -n 1 trace_file_errors.err)"
  fi
}
printf 'start,duration,a,b\n0,60,0,1\n100,60,1,2\n' > trace_file_errors.csv
printf 'start,duration,a,b\n0,sixty,0,1\n' > trace_file_errors_bad.csv
printf 'start,duration,a,b\n0,60,0,1\n100,60,1,4000000000\n' > trace_file_errors_huge.csv
check 'cannot open trace file no_such_trace.csv' "$1" --trace-file=no_such_trace.csv --csv
check 'cannot open ONE trace file no_such_trace.one' "$1" --trace-one=no_such_trace.one --csv
check 'malformed trace line: 0,sixty,0,1' "$1" --trace-file=trace_file_errors_bad.csv --csv
# The node count is the largest id + 1: one stray id must not allocate for
# four billion nodes.
check 'node id 4000000000 above the limit 999999 on trace line 3: 100,60,1,4000000000' \
  "$1" --trace-file=trace_file_errors_huge.csv --csv
check '.*--trace-file and --trace-one.*' \
  "$1" --trace-file=trace_file_errors.csv --trace-one=trace_file_errors.csv --csv
# 3 nodes cannot host the default preset's 8 caching nodes per item.
check 'need at least one non-caching node as the source (8 caching nodes per item, 3 nodes)' \
  "$1" --trace-file=trace_file_errors.csv --csv
exit $status
