#!/bin/sh
# Both CLIs build the same config for the same preset and seed: for every
# preset and for seeds 1 and 3, the config `dtncache --set=seed=S
# --dump-config` writes, fed back through `dtncache_sweep --config=...
# --list`, has the fingerprint of the matching job of `dtncache_sweep
# --trace=... --seeds=3 --list`.
#
# usage: preset_fingerprints.sh <dtncache> <dtncache_sweep>
set -eu
sim=$1
sweep=$2
status=0
for preset in reality infocom mobility; do
  for seed in 1 3; do
    spec=preset_${preset}_${seed}.json
    "$sim" --trace="$preset" --set="seed=$seed" --dump-config > "$spec"
    from_sim=$("$sweep" --config="$spec" --list 2>/dev/null | awk '{ print $2 }')
    from_sweep=$("$sweep" --trace="$preset" --seeds=3 --list 2>/dev/null |
                 awk -v job=$((seed - 1)) '$1 == job { print $2 }')
    if [ -z "$from_sim" ] || [ "$from_sim" != "$from_sweep" ]; then
      echo "FAIL $preset seed $seed: dtncache '$from_sim' vs dtncache_sweep '$from_sweep'"
      status=1
    else
      echo "ok   $preset seed $seed: $from_sim"
    fi
  done
done
exit $status
