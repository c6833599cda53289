#include "sweep/result_sink.hpp"

#include <cmath>
#include <sstream>

#include "obs/tracer.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace dtncache::sweep {
namespace {

/// Deterministic double rendering: 17 significant digits round-trips any
/// double, and one fixed formatter keeps --jobs 1 and --jobs N byte-equal.
std::string num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string num(std::uint64_t v) { return std::to_string(v); }

struct FieldList {
  std::vector<RecordField> fields;

  void number(const std::string& key, const std::string& rendered) {
    fields.push_back({key, rendered, rendered});
  }
  void text(const std::string& key, const std::string& value) {
    std::string json;
    obs::appendJsonString(json, value);
    fields.push_back({key, json, value});
  }
  /// Non-finite doubles are not JSON; render as null / empty cell.
  void maybe(const std::string& key, double v) {
    if (std::isfinite(v)) {
      number(key, num(v));
    } else {
      fields.push_back({key, "null", ""});
    }
  }
};

}  // namespace

std::vector<RecordField> recordFields(const JobResult& result, bool wallClock) {
  const auto& out = result.output;
  const auto& r = out.results;
  FieldList f;

  // -- identity ---------------------------------------------------------------
  f.number("job", num(result.job.index));
  f.text("fingerprint", configFingerprint(result.job.config));
  f.text("scheme", out.scheme);
  f.number("seed", num(static_cast<std::uint64_t>(result.job.config.seed)));
  for (const auto& [key, raw] : result.job.overrides) {
    if (jsonScalar(raw) == raw)
      f.number(key, raw);  // numeric / boolean axis value
    else
      f.text(key, raw);
  }

  // -- trace shape ------------------------------------------------------------
  f.number("trace.nodes", num(out.traceStats.nodeCount));
  f.number("trace.contacts", num(out.traceStats.contactCount));
  f.number("trace.duration_days", num(sim::toDays(out.traceStats.duration)));

  // -- headline freshness metrics --------------------------------------------
  f.number("mean_fresh", num(r.meanFreshFraction));
  f.number("final_fresh", num(r.finalFreshFraction));
  f.number("mean_valid", num(r.meanValidFraction));
  f.number("within_tau", num(r.refreshWithinPeriodRatio));
  f.number("copies_tracked", num(r.copiesTracked));
  f.number("refresh_pushes", num(r.refreshPushes));
  f.number("sim_days", num(sim::toDays(r.simulatedTime)));

  // -- queries ----------------------------------------------------------------
  f.number("queries_issued", num(r.queries.issued));
  f.number("queries_answered", num(r.queries.answered));
  f.number("queries_answered_valid", num(r.queries.answeredValid));
  f.number("queries_answered_fresh", num(r.queries.answeredFresh));
  f.number("queries_local_hits", num(r.queries.localHits));
  f.number("answered_ratio", num(r.queries.answeredRatio()));
  f.number("valid_ratio", num(r.queries.successRatio()));
  f.number("fresh_answer_ratio", num(r.queries.freshAnswerRatio()));
  f.number("mean_delay_s", num(r.queries.delay.mean()));

  // -- traffic, per category --------------------------------------------------
  for (std::size_t c = 0; c < static_cast<std::size_t>(net::Traffic::kCategoryCount); ++c) {
    const auto category = static_cast<net::Traffic>(c);
    f.number(std::string("bytes_") + net::trafficName(category),
             num(r.transfers.of(category).bytes));
  }
  f.number("bytes_total", num(r.transfers.total().bytes));
  f.number("messages_total", num(r.transfers.total().messages));
  f.number("refresh_load_per_node",
           num(sim::ratio(static_cast<double>(r.transfers.of(net::Traffic::kRefresh).bytes),
                          static_cast<double>(out.traceStats.nodeCount))));

  // -- scheme internals -------------------------------------------------------
  f.number("helpers", num(out.replicationAssignments));
  f.number("predicted_p_mean", num(out.meanPredictedProbability));
  f.number("predicted_p_min", num(out.minPredictedProbability));
  f.number("unmet_nodes", num(out.unmetNodes));
  f.number("max_depth", num(out.maxHierarchyDepth));
  f.number("reparents", num(out.reparentCount));
  f.number("pulls_issued", num(out.pullsIssued));
  f.number("churn_transitions", num(out.churnTransitions));
  f.number("churn_repairs", num(out.churnRepairs));
  f.number("contacts_suppressed", num(out.contactsSuppressed));

  // -- energy -----------------------------------------------------------------
  f.number("depleted_nodes", num(out.depletedNodes));
  f.maybe("first_depletion_days", sim::toDays(out.firstDepletionTime));
  f.number("battery_mean", num(out.meanRemainingBattery));
  f.number("battery_min", num(out.minRemainingBattery));

  // -- observability counters -------------------------------------------------
  // The runner pre-registers the full standard set, so every row carries the
  // same `ctr.*` columns in the same (name-sorted) order.
  for (const auto& [name, value] : out.counters)
    f.number("ctr." + name, num(value));

  if (wallClock) {
    f.number("wall_ms", num(result.wallSeconds * 1000.0));
    // Registry timers are wall-clock too — deterministic runs omit them.
    for (const auto& timer : out.timers)
      f.number("timer." + timer.name + "_ms", num(timer.seconds * 1000.0));
  }
  return f.fields;
}

std::string renderJsonlLine(const std::vector<RecordField>& fields) {
  std::string line = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line += ", ";
    line += '"';
    line += fields[i].key;
    line += "\": ";
    line += fields[i].json;
  }
  line += "}\n";
  return line;
}

std::string renderCsvHeader(const std::vector<RecordField>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line += ',';
    line += fields[i].key;
  }
  line += '\n';
  return line;
}

std::string renderCsvRow(const std::vector<RecordField>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) line += ',';
    line += fields[i].csv;
  }
  line += '\n';
  return line;
}

void JsonlSink::write(const JobResult& result) {
  out_ << renderJsonlLine(recordFields(result, wallClock_));
}

void CsvSink::write(const JobResult& result) {
  const auto fields = recordFields(result, wallClock_);
  if (!headerWritten_) {
    out_ << renderCsvHeader(fields);
    headerWritten_ = true;
  }
  out_ << renderCsvRow(fields);
}

}  // namespace dtncache::sweep
