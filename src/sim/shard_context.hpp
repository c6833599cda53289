#pragma once

/// \file shard_context.hpp
/// Thread-local execution context for the sharded simulation kernel.
///
/// The sharded runner (runner/shard_driver.*) executes shard-local contacts
/// on worker threads while every simulator-queue event runs on the
/// coordinator between merge barriers. Shared observability sinks (counters,
/// trace lines, metric ops) cannot be written concurrently without either
/// locks (slow, and lock order would perturb nothing — but contention would
/// dominate) or per-thread buffers. This
/// context is the per-thread buffer selector: each instrumented component
/// keeps one sink per context and folds them deterministically at merge
/// time, keyed by the (time, sequence) tag of the event that produced each
/// record — the same total order the single-threaded kernel executes in,
/// which is what makes the merged output byte-identical.
///
/// Context ids: 0 = the coordinator (and the only context that exists in
/// plain single-threaded runs — `tlsShard` zero-initializes, so untouched
/// code paths behave exactly as before); shard s's worker is context s+1.

#include <cstdint>

#include "sim/time.hpp"

namespace dtncache::sim {

struct ShardContext {
  /// Sink selector: 0 on the coordinator / in plain runs, shard+1 on workers.
  std::uint32_t ctx = 0;
  /// (time, sequence) key of the event currently executing on this thread —
  /// the deterministic merge tag for everything the event emits.
  SimTime evTime = 0.0;
  std::uint64_t evSeq = 0;
};

inline thread_local ShardContext tlsShard{};

}  // namespace dtncache::sim
