#!/bin/sh
# One figure grid end to end: scripts/figures.py runs F6's Infocom
# per-scheme grid at half a day through dtncache_sweep and its table
# renderer, and the table must equal the checked-in one cell for cell.
#
# usage: figure_tables.sh <python3> <dtncache_sweep>
set -eu
here=$(cd "$(dirname "$0")" && pwd)
"$1" -B - "$here/../../scripts" "$2" > figure_tables.out <<'PY'
import sys
sys.path.insert(0, sys.argv[1])
import figures
table = figures.find_table("F6", "infocom-like: per-scheme refresh overhead")
jsonl = b"".join(figures.run_grid(sys.argv[2], args + ["--days=0.5"], jobs=2)
                 for args in table.grids)
sys.stdout.write(figures.render(table, figures.records_of(jsonl)))
PY
diff -u "$here/figure_tables.expected" figure_tables.out
