#!/bin/sh
# `--trace` names a preset and `--config` a file: given together, the
# command line is ambiguous, and both CLIs refuse it with exit status 2
# (before reading the file, so a missing one does not mask the error).
#
# usage: trace_with_config.sh <dtncache> <dtncache_sweep>
set -u
status=0
check() {
  "$@" > /dev/null 2> trace_with_config.err
  code=$?
  if [ "$code" -ne 2 ] || ! grep -q '^error: .*--trace.*--config' trace_with_config.err; then
    echo "FAIL $1: exit $code"
    cat trace_with_config.err
    status=1
  else
    echo "ok   $1: exit 2: $(head -n 1 trace_with_config.err)"
  fi
}
check "$1" --trace=reality --config=no_such_config.json --dump-config
check "$2" --trace=reality --config=no_such_config.json --list
exit $status
