#!/bin/sh
# `--set="key=value;key=value"` is the one way to patch a config key on the
# command line, and its values are checked like a `--config` file's: a
# value the field cannot hold, a misspelt key or a malformed config file
# exits 2 with one plain `error:` line that names the key and the value as
# given (no check text, no source path, no usage dump). A value may hold
# commas: `peer.peers` survives `--dump-config` and a `--config` replay.
#
# usage: set_flag.sh <dtncache> <dtncache_peerd>
set -u
sim=$1
peerd=$2
status=0
check() {
  expected=$1
  shift
  "$@" > /dev/null 2> set_flag.err
  code=$?
  if [ "$code" -ne 2 ] || [ "$(cat set_flag.err)" != "error: $expected" ]; then
    echo "FAIL $*: exit $code"
    cat set_flag.err
    status=1
  else
    echo "ok   $*: exit 2: $expected"
  fi
}
check "key 'cache.cachingNodesPerItem' value -3 is out of range for its type (0 to 18446744073709551615)" \
  "$sim" --set=cache.cachingNodesPerItem=-3
check "key 'catalog.itemCount' value -1 is out of range for its type (0 to 18446744073709551615)" \
  "$sim" --trace=reality --set="seed=2;catalog.itemCount=-1"
check "key 'peer.nodeCount' value 4294967299 is out of range for its type (0 to 4294967295)" \
  "$peerd" --set=peer.nodeCount=4294967299 --dump-config
check "unknown config key 'cache.warmStarts'; did you mean 'cache.warmStart'?" \
  "$sim" --set=cache.warmStarts=false
check "unknown config key 'peer.nodeCont'; did you mean 'peer.nodeCount'?" \
  "$peerd" --set=peer.nodeCont=4 --dump-config
check "clause 'seed' is not key=value" "$sim" --set=seed --dump-config
check "key 'hierarchical.replication.theta' value \"high\" must be a number" \
  "$sim" --set=hierarchical.replication.theta=high --dump-config
printf '{"seed": -}\n' > set_flag_bad_number.json
check "config JSON at key 'seed': malformed number '-'" \
  "$sim" --config=set_flag_bad_number.json --dump-config
printf '{"seed": 1' > set_flag_unclosed.json
check "config JSON after key 'seed' value 1: unexpected end of input" \
  "$sim" --config=set_flag_unclosed.json --dump-config
check "config JSON after key 'seed' value 1: unexpected end of input" \
  "$peerd" --config=set_flag_unclosed.json --dump-config

# A comma-holding value round-trips: --set, --dump-config, --config.
peers=127.0.0.1:7001,127.0.0.1:7002
"$peerd" --set="peer.peers=$peers;peer.node=1" --dump-config > set_flag_peer.json
if ! grep -q "^  \"peer.peers\": \"$peers\",\$" set_flag_peer.json; then
  echo "FAIL peer.peers=$peers did not reach the dump:"
  cat set_flag_peer.json
  status=1
elif ! "$peerd" --config=set_flag_peer.json --dump-config | cmp -s - set_flag_peer.json; then
  echo "FAIL the dump with peer.peers=$peers does not replay to itself"
  status=1
else
  echo "ok   peer.peers=$peers round-trips through --dump-config and --config"
fi
exit $status
