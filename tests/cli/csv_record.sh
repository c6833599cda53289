#!/bin/sh
# `dtncache --csv` prints the sweep's record: the header and row that
# `dtncache_sweep --no-wall` writes for the same run, byte for byte, on a
# preset and on a config with `--set` patches replayed through `--config`.
#
# usage: csv_record.sh <dtncache> <dtncache_sweep>
set -u
sim=$1
sweep=$2
status=0
same() {
  label=$1
  if cmp -s csv_record_sim.csv csv_record_sweep.csv; then
    echo "ok   $label: $(wc -c < csv_record_sim.csv) bytes"
  else
    echo "FAIL $label: dtncache --csv differs from dtncache_sweep --csv"
    diff csv_record_sim.csv csv_record_sweep.csv | head -n 6
    status=1
  fi
}
"$sim" --trace=infocom --days=1 --csv > csv_record_sim.csv
"$sweep" --trace=infocom --days=1 --no-wall --csv=- --quiet > csv_record_sweep.csv
same "infocom, 1 day"

set="seed=4;scheme=epidemic;catalog.itemCount=12;hierarchical.relayAssisted=false"
"$sim" --trace=reality --days=3 --set="$set" --dump-config > csv_record.json
"$sim" --trace=reality --days=3 --set="$set" --csv > csv_record_sim.csv
"$sweep" --config=csv_record.json --no-wall --csv=- --quiet > csv_record_sweep.csv
same "reality, 3 days, --set=$set"
exit $status
