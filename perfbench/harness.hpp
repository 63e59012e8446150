#pragma once
/// \file harness.hpp
/// Shared plumbing of the repository benchmark: run options, the in-memory
/// span recorder used by traced runs, the per-run report (metrics, checks,
/// settings, pins) and small statistics helpers. The workloads themselves
/// live in workloads.cpp; harness.cpp parses the command line and prints the
/// report as one JSON line for run.py.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace perfbench {

/// Sizes of one workload. "full" is what the benchmark measures; "tiny"
/// exists for the benchmark's own tests (every metric emitted, seconds-scale).
struct Scale {
  std::string name = "full";
  int campaign_configs = 256;   ///< configs per campaign round (x 4 apps)
  int search_budget = 240;      ///< simulations per dse::search call
  int serve_hot_configs = 64;   ///< pre-populated configs (x 4 apps)
  int serve_hit_requests = 2000;   ///< phase (a) blocking requests per round
  int serve_batches = 48;          ///< phase (b) batches per client per round
  int serve_batch_size = 256;      ///< phase (b) requests per batch
  int serve_fresh_every = 1000;    ///< one fresh config per this many requests
  int fused_configs = 1000;     ///< configs per routed campaign round
  int check_configs = 8;        ///< configs re-simulated by the output checks
  int min_rounds = 3;           ///< rounds measured even past --seconds
  int setup_repeats = 15;       ///< set-ups timed for setup_s (median)

  static Scale tiny();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::string spans_path;  ///< traced runs write their spans here
  std::string work_dir;    ///< scratch directory for stores and sockets
  int threads = 1;         ///< service workers / client threads (< nproc)
};

/// Monotonic microseconds since the first call in the process.
double now_us();

/// In-memory span recorder for traced runs. Each span has a name, start,
/// end, parent span and an optional request id shared by every span of one
/// serve request. Disabled recorders store nothing.
class Spans {
 public:
  struct Record {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int id = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under `parent` (-1 = the calling thread's innermost open
  /// span). Returns the span id, or -1 when disabled.
  int open(const std::string& name, int parent = -1, std::uint64_t request = 0);
  void close(int id);

  /// The calling thread's innermost open span (-1 when none).
  static int current();

  /// Writes every recorded span as a JSON array.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

Spans& spans();

/// RAII span on the process recorder.
class Scope {
 public:
  explicit Scope(const std::string& name, int parent = -1,
                 std::uint64_t request = 0)
      : id_(spans().open(name, parent, request)) {}
  ~Scope() { spans().close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one run reports. `metrics` are the names BENCHMARK.json lists
/// (end-to-end in untraced runs, per-layer in traced runs); `extras` are the
/// workload-specific figures printed next to them.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::pair<double, std::string>> extras;
  std::vector<std::pair<std::string, std::string>> settings;
  std::map<std::string, std::string> pins;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string why;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void extra(const std::string& name, double value, const std::string& unit) {
    extras[name] = {value, unit};
  }
  void setting(const std::string& name, const std::string& value) {
    settings.emplace_back(name, value);
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void setting(const std::string& name, T value) {
    settings.emplace_back(name, std::to_string(value));
  }
  /// Records a check; returns `ok` so callers can chain.
  bool check(const std::string& name, bool ok, const std::string& detail = {});
  bool all_ok() const;
};

// --- statistics ---------------------------------------------------------

/// A latency distribution as the benchmark reports it: the median plus the
/// highest of p99.9 / p99 / p95 / p90 / p75 that has at least ten samples
/// beyond it (none when fewer than 40 samples exist).
struct Tail {
  double p50 = 0.0;
  std::string label;  ///< "p99", ... ; empty when no percentile qualifies
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// --- result identity ----------------------------------------------------

/// FNV-1a over every persisted counter of a run plus its power block: two
/// runs hash equal iff their results are bit-identical.
std::uint64_t run_digest(const adse::sim::RunResult& run);

/// Order-sensitive FNV-1a combine of 64-bit values.
std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::string hex64(std::uint64_t value);

/// The four workloads; each fills `report` and returns normally even when a
/// check fails (failures are data in the report).
void run_campaign(const Options& options, Report& report);
void run_search(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);
void run_fused(const Options& options, Report& report);

}  // namespace perfbench
