#pragma once
/// \file trace_cache.hpp
/// Thread-safe memo for workload traces. Traces depend only on
/// (app, vector length); building one takes longer than some simulations, so
/// every concurrent evaluator — the campaign runner and the DSE search loop —
/// shares them across a run. Owned by `eval::EvalService`; the class lives
/// here so backends and benches can also hold one directly.
///
/// Builds happen *outside* the map lock behind a per-key once-latch: at
/// campaign cold-start every worker thread asks for a handful of distinct
/// (app, vl) keys at once, and holding one global mutex across
/// `kernels::build_app` would serialise the whole pool. Only a first caller
/// builds a given key; concurrent callers of the *same* key block on its
/// latch, callers of different keys proceed in parallel.
///
/// Each entry also carries the engine's decode of its program
/// (`core::DecodedTrace`), built on the first simulation behind a second
/// once-latch, so every simulation of a service decodes each trace once.
/// get() never decodes: warming the programs stays as cheap as building them.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "core/batched_core.hpp"
#include "isa/program.hpp"
#include "kernels/workloads.hpp"
#include "obs/metrics.hpp"

namespace adse::eval {

/// One (app, VL) trace as backends receive it: the program, and its decode
/// on demand.
class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  const isa::Program& program() const { return program_; }

  /// The engine decode of program(), built by the first caller; concurrent
  /// first callers wait on its once-latch. The program must not be empty.
  const core::DecodedTrace& decoded() const;

 private:
  friend class TraceCache;
  isa::Program program_;
  obs::Counter* decode_counter_ = nullptr;  ///< counts the one decode, if set
  mutable std::once_flag decode_once_;
  mutable std::unique_ptr<const core::DecodedTrace> decoded_;
};

class TraceCache {
 public:
  /// Standalone cache: hit/build counters live in private obs counters;
  /// decodes are not counted.
  TraceCache() : hit_counter_(&own_hits_), build_counter_(&own_builds_) {}

  /// Cache whose traffic counts into externally owned (registry) counters —
  /// how `EvalService` makes the obs registry the source of truth for
  /// "eval.trace_hits" / "eval.trace_builds" / "eval.trace_decodes". All
  /// must outlive the cache.
  TraceCache(obs::Counter* hits, obs::Counter* builds, obs::Counter* decodes)
      : hit_counter_(hits), build_counter_(builds), decode_counter_(decodes) {}

  /// Returns the trace for (app, vl), building it on first use. The returned
  /// reference stays valid for the cache's lifetime.
  const isa::Program& get(kernels::App app, int vl) {
    return entry(app, vl).program();
  }

  /// Same, as the entry backends run against (program plus lazy decode).
  const Trace& entry(kernels::App app, int vl);

  std::size_t size() const;

  /// Calls that found the trace already built (no once-latch wait needed).
  std::uint64_t hits() const { return hit_counter_->value(); }
  /// Traces actually built (== size(), counted as they happen).
  std::uint64_t builds() const { return build_counter_->value(); }

 private:
  /// One slot per key. std::map nodes are address-stable, so the slot (and
  /// the program inside it) can be used after the map mutex is dropped.
  struct Slot {
    std::once_flag once;
    std::atomic<bool> built{false};
    Trace trace;
  };

  mutable std::mutex mutex_;
  std::map<std::pair<int, int>, Slot> cache_;
  obs::Counter own_hits_;
  obs::Counter own_builds_;
  obs::Counter* hit_counter_;
  obs::Counter* build_counter_;
  obs::Counter* decode_counter_ = nullptr;
};

}  // namespace adse::eval
