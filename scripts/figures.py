#!/usr/bin/env python3
"""Regenerate every experiment table (T1, F2-F14) on stdout.

One ordered figure list is the whole experiment pipeline. Each figure is a
banner followed by parts, and a part is one of:

  - a Table: the dtncache_sweep argument lists of its grids plus the table
    spec (columns as record fields or arithmetic over them, row grouping,
    metrics::fmt precision). Grids always run with
    `--no-wall --csv= --jsonl=-`, so every number comes from the sweep's
    deterministic JSONL records, and a figure's records are kept in
    `<jsonl-dir>/<id>.jsonl`;
  - a Bench: a C++ binary under <build>/bench, run at its place in the list.
    Only sections that cannot be a sweep grid stay C++; bench/CMakeLists.txt
    gives each one's reason.

Tables are padded like metrics::Table, and mean±sd uses Welford's method
like sim::Accumulator, so the output matches the C++ drivers cell for cell.
A sweep or bench that exits non-zero aborts the script with the figure id
and its exit code. Standard library only.

Usage:
  python3 scripts/figures.py [--build DIR] [--jobs N] [--jsonl-dir DIR]
"""

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Callable, List, NamedTuple, Optional

MIB = 1024.0 * 1024.0
SCHEMES = ("Hierarchical", "NoRefresh", "SourceDirect", "Pull", "Invalidation",
           "Epidemic", "Flooding")  # runner::allSchemes() order
CATEGORIES = ("control", "refresh", "placement", "query", "reply", "pull")
ORACLE = "hierarchical.useOracleRates=true"
NO_QUERIES = "workload.queriesPerNodePerDay=0"


# -- specs ---------------------------------------------------------------------

class Table(NamedTuple):
    section: Optional[str]         # printed as "--- section ---" unless None
    grids: List[List[str]]         # dtncache_sweep argument lists, in row order
    columns: list                  # (header, cell) pairs; cell(rows) -> str
    group: Optional[str] = None    # consecutive records equal here form one row
    melt: Optional[Callable] = None  # one record -> several row records
    note: str = ""                 # printed under the table


class Bench(NamedTuple):
    name: str
    takes_jobs: bool = False


class Figure(NamedTuple):
    id: str
    title: str
    parts: list


def sweep(trace, schemes, *knobs, nodes=None, seeds=None):
    """The argument list of one dtncache_sweep grid."""
    args = [f"--trace={trace}", f"--schemes={schemes}"]
    if nodes is not None:
        args.append(f"--nodes={nodes}")
    if seeds is not None:
        args.append(f"--seeds={seeds}")
    if knobs:
        args.append("--sweep=" + ";".join(knobs))
    return args


# -- cells ---------------------------------------------------------------------

def fmt(value, precision=3):
    """metrics::fmt: fixed-point; a null record value prints as '-'."""
    return "-" if value is None else f"{value:.{precision}f}"


def value(record, expr):
    return expr(record) if callable(expr) else record[expr]


def num(expr, precision=3):
    return lambda rows: fmt(value(rows[0], expr), precision)


def text(expr):
    return lambda rows: str(value(rows[0], expr))


def mean_sd(expr, precision=3):
    """mean±sd over the row's records, with Welford moments as in
    sim::Accumulator; a single record prints its mean alone."""
    def cell(rows):
        n, mean, m2 = 0, 0.0, 0.0
        for r in rows:
            x = float(value(r, expr))
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        if n <= 1:
            return fmt(mean, precision)
        return fmt(mean, precision) + "±" + fmt(math.sqrt(m2 / (n - 1)), precision)
    return cell


def of_scheme(scheme, cell):
    return lambda rows: cell([r for r in rows if r["scheme"] == scheme])


def on_off(key):
    return text(lambda r: "on" if r[key] else "off")


def refresh_mb(r):
    return r["bytes_refresh"] / MIB


def hours(key):
    return lambda r: r[key] / 3600.0


def mb_per_fresh_point(r):
    fresh = r["mean_fresh"]
    return refresh_mb(r) / (100.0 * fresh) if fresh > 0.01 else None


SCHEME = ("scheme", text("scheme"))
MEAN_FRESH = ("mean_fresh", num("mean_fresh"))
WITHIN_TAU = ("within_tau", num("within_tau"))
VALID_ANSWERS = ("valid_answers", num("valid_ratio"))
REFRESH_MB = ("refresh_MB", num(refresh_mb, 1))


# -- the figure list -----------------------------------------------------------

def f3_tau(name, trace, tau_hours):
    return Table(
        name,
        [sweep(trace, "all", "catalog.refreshPeriodSeconds=" +
               ",".join(str(h * 3600) for h in tau_hours))],
        [("tau_hours", num(hours("catalog.refreshPeriodSeconds"), 0))] +
        [(s, of_scheme(s, num("mean_fresh"))) for s in SCHEMES],
        group="catalog.refreshPeriodSeconds")


def f4_caching_nodes(name, trace):
    return Table(
        name,
        [sweep(trace, "hierarchical,sourcedirect,epidemic",
               "cache.cachingNodesPerItem=4,8,12,16")],
        [("caching_nodes", text("cache.cachingNodesPerItem")), SCHEME, MEAN_FRESH,
         VALID_ANSWERS, ("answered", num("answered_ratio")), REFRESH_MB,
         ("tree_depth", text("max_depth"))])


def f5_theta(name, trace):
    fixed = (ORACLE, NO_QUERIES)
    return Table(
        name,
        # θ × replication without relays (static trees isolate the model),
        # plus one relay-assisted row: the deployed system beats the bound.
        [sweep(trace, "hierarchical", "hierarchical.replication.theta=0.5,0.7,0.8,0.9,0.95,0.99",
               "hierarchical.replication.enabled=true,false",
               "hierarchical.relayAssisted=false", "hierarchical.maintenance=static", *fixed),
         sweep(trace, "hierarchical", "hierarchical.replication.theta=0.9",
               "hierarchical.replication.enabled=true", "hierarchical.relayAssisted=true",
               *fixed)],
        [("theta", num("hierarchical.replication.theta", 2)),
         ("replication", on_off("hierarchical.replication.enabled")),
         ("relays", on_off("hierarchical.relayAssisted")),
         ("predicted", num("predicted_p_mean")), ("achieved", num("within_tau")),
         ("helpers", text("helpers")), ("unmet_nodes", text("unmet_nodes")), REFRESH_MB])


def f6_scheme_overhead(name, trace):
    return Table(
        f"{name}: per-scheme refresh overhead",
        [sweep(trace, "all")],
        [SCHEME, MEAN_FRESH, REFRESH_MB, ("refresh_msgs", text("messages_refresh")),
         ("MB_per_fresh_point", num(mb_per_fresh_point, 2))])


def f7_load(name, trace):
    return Table(
        name,
        [sweep(trace, "hierarchical,norefresh,sourcedirect,epidemic",
               "workload.queriesPerNodePerDay=0.5,2,8")],
        [("queries_per_node_day", num("workload.queriesPerNodePerDay", 1)), SCHEME,
         ("answered", num("answered_ratio")), ("valid", num("valid_ratio")),
         ("fresh_answers", num("fresh_answer_ratio")),
         ("mean_delay_h", num(hours("mean_delay_s"), 2)),
         ("max_delay_h", num(hours("max_delay_s"), 2))])


def f8_fanout(relays):
    state = "on" if relays else "off"
    return Table(
        f"infocom-like: fanout bound F (relays {state})",
        [sweep("infocom", "hierarchical", "hierarchical.fanoutBound=1,2,3,5,8", ORACLE,
               f"hierarchical.relayAssisted={str(relays).lower()}")],
        [("fanout", text("hierarchical.fanoutBound")), MEAN_FRESH, WITHIN_TAU,
         ("tree_depth", text("max_depth")), REFRESH_MB])


def f8_attachment(name, trace):
    # Relays off exposes the raw tree quality.
    return Table(
        f"{name}: depth-aware vs naive attachment",
        [sweep(trace, "hierarchical", "hierarchical.depthAware=true,false", ORACLE,
               "hierarchical.relayAssisted=false")],
        [("attachment",
          text(lambda r: "depth-aware" if r["hierarchical.depthAware"] else "naive")),
         MEAN_FRESH, WITHIN_TAU, ("tree_depth", text("max_depth"))])


def f9_arm(r):
    if r.get("hierarchical.useOracleRates"):
        return "oracle"
    if "estimator.windowSeconds" in r:
        return "window_" + fmt(r["estimator.windowSeconds"] / 86400.0, 0) + "d"
    if r.get("estimator.mode") == "ewma":
        return "ewma"
    return "cold_start" if "estimatorWarmupSeconds" in r else "cumulative"


def f9_rate_knowledge(name, trace):
    # The presets estimate rates cumulatively after a 7-day warm-up.
    return Table(
        name,
        [sweep(trace, "hierarchical", "hierarchical.useOracleRates=true,false"),
         sweep(trace, "hierarchical", "estimator.mode=window",
               "estimator.windowSeconds=86400,259200,604800"),
         sweep(trace, "hierarchical", "estimator.mode=ewma"),
         sweep(trace, "hierarchical", "estimatorWarmupSeconds=0")],
        [("rate_knowledge", text(f9_arm)), MEAN_FRESH, WITHIN_TAU,
         ("reparents", text("reparents"))])


def f10_load(name, trace, note=""):
    return Table(
        name,
        # NoRefresh has no refresh load to measure; no queries isolates
        # maintenance traffic.
        [sweep(trace, "hierarchical,sourcedirect,pull,invalidation,epidemic,flooding",
               NO_QUERIES)],
        [SCHEME, MEAN_FRESH,
         ("refresh_KB_per_node_mean", num(lambda r: r["refresh_load_per_node"] / 1024.0, 1)),
         ("peak_to_mean", num("refresh_load_peak_to_mean", 1)),
         ("gini", num("refresh_load_gini", 2)),
         ("top10_share", num("refresh_load_top10_share", 2))],
        note=note)


def f11_churn(name, trace):
    # Structure-only delivery: relays would route around dead interior
    # nodes and mask the damage the repair exists to fix. Deep trees
    # (fanout 2, 12 members) maximize interior-death exposure, and periodic
    # maintenance is off so the only adaptation is churn repair.
    fixed = (NO_QUERIES, ORACLE, "hierarchical.relayAssisted=false",
             "hierarchical.fanoutBound=2", "hierarchical.maintenance=static",
             "cache.cachingNodesPerItem=12")
    grids = []
    for down_hours in (0, 6, 24, 72):
        churn = ()
        if down_hours > 0:
            churn = ("churn.enabled=true", f"churn.meanDowntimeSeconds={down_hours * 3600}")
        grids.append(sweep(trace, "hierarchical", *fixed, *churn,
                           "churn.repairEnabled=true,false"))
        grids.append(sweep(trace, "epidemic", *fixed, *churn, "churn.repairEnabled=false"))

    def arm(r):
        if r["scheme"] == "Epidemic":
            return "epidemic"
        return "hierarchical+repair" if r["churn.repairEnabled"] else "hierarchical-frozen"

    return Table(
        name, grids,
        [("mean_downtime_h", num(lambda r: r.get("churn.meanDowntimeSeconds", 0) / 3600.0, 0)),
         ("arm", text(arm)), MEAN_FRESH, WITHIN_TAU,
         ("churn_repairs", text("churn_repairs")),
         ("suppressed_contacts", text("contacts_suppressed"))])


def f13_allocation(name, trace):
    return Table(
        name,
        [sweep(trace, "hierarchical", "workload.zipfExponent=0.2,1.0,1.6",
               "allocation=uniform,sqrt,proportional", "workload.queriesPerNodePerDay=4",
               ORACLE)],
        [("zipf_exp", num("workload.zipfExponent", 1)), ("allocation", text("allocation")),
         VALID_ANSWERS, ("answered", num("answered_ratio")),
         ("hot_item_delay_h", num(hours("mean_delay_s"), 2)), MEAN_FRESH])


FIGURES = [
    Figure("T1", "trace characteristics", [Bench("bench_trace_stats")]),
    Figure("F2", "freshness ratio over time (all schemes)", [
        Bench("bench_freshness_time", takes_jobs=True),
        # The single-trace numbers above are points; the seeds show they
        # are stable across mobility realizations.
        Table("infocom-like: headline numbers over 5 seeds (mean±sd)",
              [sweep("infocom", "all", seeds=5)],
              [("scheme", text("scheme")), ("mean_fresh", mean_sd("mean_fresh")),
               ("valid_answers", mean_sd("valid_ratio")),
               ("refresh_MB", mean_sd(refresh_mb, 1))],
              group="scheme"),
    ]),
    Figure("F3", "mean freshness vs refresh period tau", [
        f3_tau("reality-like", "reality", (24, 48, 96, 168)),
        f3_tau("infocom-like", "infocom", (2, 4, 6, 12, 24)),
    ]),
    Figure("F4", "freshness & access vs caching-node count R", [
        f4_caching_nodes("reality-like", "reality"),
        f4_caching_nodes("infocom-like", "infocom"),
    ]),
    Figure("F5", "freshness requirement theta: predicted vs achieved", [
        f5_theta("infocom-like", "infocom"),
        f5_theta("reality-like", "reality"),
        Bench("bench_theta_guarantee", takes_jobs=True),
    ]),
    Figure("F6", "freshness-maintenance overhead", [
        f6_scheme_overhead("infocom-like", "infocom"),
        Table("infocom-like: hierarchical traffic breakdown",
              [sweep("infocom", "hierarchical")],
              [("category", text("category")), ("messages", text("messages")),
               ("MB", num(lambda r: r["bytes"] / MIB, 1))],
              melt=lambda r: [{"category": c, "messages": r["messages_" + c],
                               "bytes": r["bytes_" + c]} for c in CATEGORIES]),
        Table("infocom-like: refresh overhead vs theta",
              [sweep("infocom", "hierarchical",
                     "hierarchical.replication.theta=0.5,0.7,0.9,0.95,0.99", ORACLE)],
              [("theta", num("hierarchical.replication.theta", 2)),
               ("helpers", text("helpers")), REFRESH_MB, ("achieved", num("within_tau"))]),
        f6_scheme_overhead("reality-like", "reality"),
    ]),
    Figure("F7", "query validity and access delay vs load", [
        f7_load("infocom-like", "infocom"),
        f7_load("reality-like", "reality"),
    ]),
    Figure("F8", "hierarchy design ablations", [
        f8_fanout(relays=True),
        # Raw tree quality is visible only when relays cannot paper over
        # weak edges.
        f8_fanout(relays=False),
        f8_attachment("infocom-like", "infocom"),
        f8_attachment("reality-like", "reality"),
        Table("infocom-like: maintenance under estimated rates",
              [sweep("infocom", "hierarchical",
                     "hierarchical.maintenance=rebuild,local-repair,static",
                     "hierarchical.useOracleRates=false")],
              [("maintenance", text("hierarchical.maintenance")), MEAN_FRESH, WITHIN_TAU,
               ("reparents", text("reparents"))]),
        Table("reality-like: relay-assisted delivery",
              [sweep("reality", "hierarchical", "hierarchical.relayAssisted=true,false",
                     ORACLE)],
              [("relays", on_off("hierarchical.relayAssisted")), MEAN_FRESH, WITHIN_TAU,
               REFRESH_MB]),
        Table("infocom-like: robustness to contact loss",
              [sweep("infocom", "hierarchical", "network.contactLossRate=0,0.1,0.3,0.5",
                     ORACLE)],
              [("loss_rate", num("network.contactLossRate", 1)), MEAN_FRESH, WITHIN_TAU,
               VALID_ANSWERS]),
    ]),
    Figure("F9", "estimator sensitivity (rate knowledge ablation)", [
        f9_rate_knowledge("infocom-like", "infocom"),
        f9_rate_knowledge("reality-like", "reality"),
    ]),
    Figure("F10", "per-node refresh load distribution", [
        f10_load("infocom-like", "infocom"),
        f10_load("reality-like", "reality",
                 note="\npeak_to_mean 1.0 = perfectly even duty; gini 0 = even, 1 = "
                      "one node does everything.\n"),
    ]),
    Figure("F11", "freshness under node churn (distributed repair)", [
        f11_churn("infocom-like", "infocom"),
        f11_churn("reality-like", "reality"),
    ]),
    Figure("F12", "energy cost and network lifetime (extension)", [
        Table("infocom-like: battery budget sweep",
              [sweep("infocom", "hierarchical,sourcedirect,epidemic,flooding",
                     "energy.batteryJoules=100,150,250", "energy.enabled=true",
                     "energy.idleJoulesPerHour=0.5", ORACLE)],
              [("battery_J", num("energy.batteryJoules", 0)), SCHEME, MEAN_FRESH,
               VALID_ANSWERS, ("dead_nodes", text("depleted_nodes")),
               ("first_death_day", num("first_depletion_days", 2)),
               ("mean_residual", num("battery_mean", 2))]),
        Bench("bench_energy"),
    ]),
    Figure("F13", "popularity-aware cache allocation (extension)", [
        f13_allocation("reality-like", "reality"),
        f13_allocation("infocom-like", "infocom"),
    ]),
    Figure("F14", "scaling with network size (extension)", [
        # Constant per-pair density and caching-set size; communities grow
        # with N (one per 20 nodes).
        Table(None,
              [sweep("infocom", "hierarchical", f"trace.communities={n // 20}", ORACLE,
                     nodes=n) for n in (40, 80, 120, 200)],
              [("nodes", text("trace.nodes")), ("contacts", text("trace.contacts")),
               MEAN_FRESH, WITHIN_TAU, VALID_ANSWERS,
               ("refresh_KB_per_node", num(lambda r: r["refresh_load_per_node"] / 1024.0, 0))],
              note="\nCaching-set size is fixed at 8; density is fixed per pair, so\n"
                   "total contacts grow ~quadratically while per-node refresh duty "
                   "stays bounded.\n"),
    ]),
]


def find_table(figure_id, section):
    """The Table of figure `figure_id` printed under `section`."""
    figure = next(f for f in FIGURES if f.id == figure_id)
    return next(p for p in figure.parts if isinstance(p, Table) and p.section == section)


# -- running and rendering -----------------------------------------------------

class StepFailed(Exception):
    def __init__(self, what, status):
        super().__init__(f"{what} exited with status {status}")
        self.status = status


def run_grid(sweep_bin, args, jobs=0):
    """Run one grid; return its JSONL bytes (one record per line)."""
    cmd = [sweep_bin, *args, "--no-wall", "--csv=", "--jsonl=-", "--quiet", f"--jobs={jobs}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        raise StepFailed("dtncache_sweep " + " ".join(args), proc.returncode)
    return proc.stdout


def records_of(jsonl):
    return [json.loads(line) for line in jsonl.splitlines() if line.strip()]


def format_table(headers, rows):
    """metrics::Table::print: two-space gutters, left-aligned, padded to
    each column's widest cell in bytes."""
    widths = [max(len(cells[c].encode()) for cells in [headers, *rows])
              for c in range(len(headers))]

    def line(cells):
        return "".join("  " + cell + " " * (w - len(cell.encode()))
                       for cell, w in zip(cells, widths)) + "\n"

    rule = "".join("  " + "-" * w for w in widths) + "\n"
    return line(headers) + rule + "".join(line(r) for r in rows)


def render(table, records):
    """The table's section line and body for records in grid order."""
    if table.melt is not None:
        records = [row for r in records for row in table.melt(r)]
    groups = []
    for r in records:
        if groups and table.group and groups[-1][0][table.group] == r[table.group]:
            groups[-1].append(r)
        else:
            groups.append([r])
    headers = [header for header, _ in table.columns]
    rows = [[cell(group) for _, cell in table.columns] for group in groups]
    section = "" if table.section is None else f"\n--- {table.section} ---\n"
    return section + format_table(headers, rows) + table.note


def run_figure(figure, build, jobs):
    """Print one figure; return its JSONL bytes."""
    out = sys.stdout
    out.write(f"\n=== {figure.id}: {figure.title} ===\n")
    jsonl = b""
    for part in figure.parts:
        if isinstance(part, Bench):
            out.flush()
            cmd = [os.path.join(build, "bench", part.name)]
            if part.takes_jobs:
                cmd += ["--jobs", str(jobs)]
            status = subprocess.run(cmd).returncode
            if status != 0:
                raise StepFailed(part.name, status)
        else:
            records = []
            for args in part.grids:
                grid_jsonl = run_grid(os.path.join(build, "apps", "dtncache_sweep"), args, jobs)
                jsonl += grid_jsonl
                records += records_of(grid_jsonl)
            out.write(render(part, records))
    out.flush()
    return jsonl


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", default="build", help="CMake build directory (default: build)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker threads per sweep and bench (0 = hardware cores)")
    parser.add_argument("--jsonl-dir", default=".",
                        help="where each figure's records go as <id>.jsonl (default: .)")
    args = parser.parse_args()
    sys.stdout.reconfigure(encoding="utf-8")
    for figure in FIGURES:
        try:
            jsonl = run_figure(figure, args.build, args.jobs)
        except (StepFailed, OSError) as e:
            sys.stdout.flush()
            print(f"error: figure {figure.id}: {e}", file=sys.stderr)
            return e.status if isinstance(e, StepFailed) and e.status > 0 else 1
        if jsonl:
            with open(os.path.join(args.jsonl_dir, f"{figure.id}.jsonl"), "wb") as f:
                f.write(jsonl)
    return 0


if __name__ == "__main__":
    sys.exit(main())
