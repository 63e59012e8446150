#pragma once
/// \file result_store.hpp
/// Persistent, append-only binary store of evaluation results under the
/// cache dir — the cross-run half of the eval service's memo. One record per
/// (backend, app, configuration): the full counter blocks of a RunResult,
/// keyed by the 30-feature vector. The format is deliberately dumb and
/// crash-tolerant:
///
///   header : magic "ADSEVAL2", format version, feature count, record size
///   records: fixed-size, each ending in an FNV-1a checksum of its bytes
///
/// A record is published with a single buffered append, so a killed writer
/// can only ever leave a torn *tail*. The loader verifies each record's
/// checksum and truncates the file back to the last intact record — a
/// truncated store loses at most the torn record, never the run.
///
/// Any other header — including the retired pre-power "ADSEVAL1" format —
/// is stale: the store starts empty and rewrites the file as v2 (the store
/// is a derived cache; the records are re-simulated on demand).

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "core/core_stats.hpp"
#include "mem/hierarchy.hpp"
#include "power/power_model.hpp"

namespace adse::eval {

/// One persisted evaluation: identity (backend tag + app + features) plus
/// the simulator's full counter blocks and the power-model result.
struct StoreRecord {
  std::uint64_t backend_tag = 0;  ///< ResultStore::tag(backend.key())
  std::int32_t app = 0;           ///< kernels::App as int
  std::array<double, config::kNumParams> features{};
  core::CoreStats core;
  mem::MemStats mem;
  power::PowerResult power;
};

class ResultStore {
 public:
  /// Opens (or creates) the store at `path`, loading every intact record and
  /// truncating any torn tail. The parent directory is created on demand.
  explicit ResultStore(std::string path, bool verbose = false);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const { return path_; }

  /// Records found intact on disk at open time.
  const std::vector<StoreRecord>& loaded() const { return loaded_; }

  /// Records this process persisted since open (written and flushed).
  std::size_t appended() const;

  /// Persists one record (thread-safe; one buffered write + flush). Only a
  /// record whose write and flush both succeed counts in appended(); the
  /// first failed write logs a warning and closes the handle. A store whose
  /// handle is closed (after a failed write, or exit-time teardown racing a
  /// late append) drops the record instead of crashing — losing one memo
  /// entry beats corrupting the file.
  void append(const StoreRecord& record);

  /// Flushes the append handle (thread-safe; no-op when closed). Appends
  /// flush themselves — this exists for drain paths that want an explicit
  /// barrier before reporting "flushed".
  void flush();

  /// Stable 64-bit tag for a backend key string (FNV-1a).
  static std::uint64_t tag(const std::string& backend_key);

  /// On-disk size of one record, for tests and capacity estimates.
  static std::size_t record_bytes();

  /// Applies `fn` to every persisted counter of a record's stat blocks, in
  /// the frozen v2 on-disk order. Public so the wire codec (eval/wire.cpp)
  /// serializes EvalResponse counter blocks bit-for-bit the way the store
  /// does — one visitation order, two consumers.
  static void visit_run_counters(core::CoreStats& core, mem::MemStats& mem,
                                 const std::function<void(std::uint64_t&)>& fn);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;  ///< append handle, owned
  std::vector<StoreRecord> loaded_;
  mutable std::mutex mutex_;
  std::size_t appended_ = 0;
};

}  // namespace adse::eval
