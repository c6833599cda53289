#pragma once

/// \file tracer.hpp
/// Structured event tracing: typed JSONL events through a buffered,
/// thread-confined sink — one pointer compare per site when no tracer is
/// installed.
///
/// Emission is always through the DTNCACHE_EVENT macro:
///
///     DTNCACHE_EVENT(tracer_, obs::EventKind::kPush, t,
///                    {"from", from}, {"to", to}, {"item", item});
///
/// Cost model, from cold to hot:
///   - no tracer installed (the default): one null-pointer compare per
///     site — the acceptance bar is < 3% on the contact path.
///   - tracer installed, kind filtered out: one additional bitmask test.
///   - kind wanted: fields are rendered to one JSONL line into the
///     tracer's in-memory buffer (no I/O on the hot path; the owner
///     flushes after the run).
///
/// Determinism contract: a Tracer is thread-confined (each sweep job owns
/// one; no locks), doubles render through the same fixed 17-significant-
/// digit formatter as the result sinks, and buffers are flushed in job-
/// index order — so a merged trace is byte-identical at any --jobs count.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "sim/time.hpp"

namespace dtncache::obs {

/// Deterministic double rendering shared by the tracer and the sweep
/// result sinks: 17 significant digits round-trips any double, and one
/// fixed formatter keeps serial and parallel output byte-equal.
std::string jsonNumber(double v);

/// One typed key/value of an event payload. Keys are string literals at
/// the emission site; values are integers (node/item/version ids, counts),
/// doubles (probabilities, byte budgets), booleans, or short strings.
struct Field {
  enum class Type : std::uint8_t { kUInt, kDouble, kBool, kText };

  // Builtin unsigned types (not the fixed-width aliases, which collide on
  // LP64) so every id/count type converts without a cast at the call site.
  constexpr Field(const char* k, unsigned int v) : key(k), type(Type::kUInt), u(v) {}
  constexpr Field(const char* k, unsigned long v) : key(k), type(Type::kUInt), u(v) {}
  constexpr Field(const char* k, unsigned long long v)
      : key(k), type(Type::kUInt), u(v) {}
  constexpr Field(const char* k, int v)
      : key(k), type(Type::kUInt), u(static_cast<std::uint64_t>(v)) {}
  constexpr Field(const char* k, double v) : key(k), type(Type::kDouble), d(v) {}
  constexpr Field(const char* k, bool v) : key(k), type(Type::kBool), b(v) {}
  constexpr Field(const char* k, const char* v)
      : key(k), type(Type::kText), s(v) {}

  const char* key;
  Type type;
  union {
    std::uint64_t u;
    double d;
    bool b;
    const char* s;
  };
};

/// A buffered event sink for one run. Construct with the run's identity
/// label (the config fingerprint in sweep runs) and a kind filter; install
/// its pointer into the instrumented layers; flush the buffer wherever the
/// trace should land once the run is over.
class Tracer {
 public:
  explicit Tracer(std::string runLabel, KindMask filter = kAllKinds)
      : run_(std::move(runLabel)), filter_(filter) {}

  /// The macro's guard: is this kind being collected?
  bool wants(EventKind kind) const { return (filter_ & kindBit(kind)) != 0; }

  /// Render one event as a JSONL line into the buffer. Callers go through
  /// DTNCACHE_EVENT, which checks wants() first — emit() itself does not
  /// filter, so a direct call always records.
  void emit(EventKind kind, sim::SimTime t, std::initializer_list<Field> fields);

  /// Lines buffered so far.
  std::size_t eventCount() const { return events_; }

  /// The buffered JSONL text (tests; flushTo for real output).
  const std::string& buffer() const { return buffer_; }

  /// Append the buffer to `out` and clear it.
  void flushTo(std::ostream& out);

  const std::string& runLabel() const { return run_; }
  KindMask filter() const { return filter_; }

  /// Sharded-kernel support: between enterShardMode(contexts) and
  /// exitShardMode(), each emitting thread renders into its own
  /// sim::tlsShard-selected buffer, tagging every line with the (time,
  /// sequence) key of the event that produced it. exitShardMode k-way
  /// merges the per-context buffers by tag into the main buffer — the
  /// single-threaded emission order, byte for byte (an event executes on
  /// exactly one context, so tags never tie across contexts, and one
  /// event's lines keep their emission order within its context).
  void enterShardMode(std::size_t contexts);
  void exitShardMode();

 private:
  struct ShardSink {
    struct Tag {
      sim::SimTime t;
      std::uint64_t seq;
      std::size_t end;  ///< buffer offset one past this line
    };
    std::string buf;
    std::vector<Tag> tags;  ///< nondecreasing (t, seq): per-context events are ordered
  };

  std::string run_;
  KindMask filter_;
  std::string buffer_;
  std::size_t events_ = 0;
  bool shardMode_ = false;
  std::vector<ShardSink> shardSinks_;
};

}  // namespace dtncache::obs

/// Emit a structured event iff `tracer` is non-null AND its filter wants
/// `kind`. Field expressions are not evaluated unless both hold.
#define DTNCACHE_EVENT(tracer, kind, t, ...)                                 \
  do {                                                                       \
    ::dtncache::obs::Tracer* dtncacheEventTracer_ = (tracer);                \
    if (dtncacheEventTracer_ != nullptr && dtncacheEventTracer_->wants(kind)) \
      dtncacheEventTracer_->emit((kind), (t), {__VA_ARGS__});                \
  } while (0)
