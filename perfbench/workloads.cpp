/// \file workloads.cpp
/// The benchmark's four workloads. Set-up (a fresh hermetic service or
/// daemon with warm caches) is first timed on its own, several times. Then
/// each workload runs in rounds until --seconds have passed (and at least
/// Scale::min_rounds): a round sets up, runs the workload body (timed), and
/// tears down. Campaign, search and fused rounds draw fresh inputs from the
/// run's seed, so one run averages over many inputs; serve rounds repeat
/// identical traffic. Traced runs alternate traced and untraced rounds;
/// their difference is the tracing overhead.
///
/// Output checks run outside the timed windows on round 0. Layer probes run
/// only in traced runs, after the rounds, on a sample of the workload's own
/// requests.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analytical_features.hpp"
#include "analysis/surrogate_eval.hpp"
#include "campaign/campaign.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "config/param_space.hpp"
#include "core/batched_core.hpp"
#include "dse/search.hpp"
#include "eval/fused.hpp"
#include "eval/result_store.hpp"
#include "eval/service.hpp"
#include "eval/trace_cache.hpp"
#include "eval/wire.hpp"
#include "harness.hpp"
#include "kernels/workloads.hpp"
#include "ml/forest.hpp"
#include "ml/importance.hpp"
#include "power/power_model.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/batch_sim.hpp"

namespace perfbench {

namespace {

using namespace adse;
namespace fs = std::filesystem;

double median_of(const std::vector<double>& values) {
  return values.empty() ? 0.0 : percentile(values, 50.0);
}

/// Batch width of every service: the library default, pinned so that an
/// environment default cannot change the workload.
constexpr int kBatchK = 8;
/// Fused routing policy, pinned explicitly (bench/11's defaults).
constexpr double kFusedThreshold = 1.0;
constexpr int kFusedProbeEvery = 64;

const std::vector<int>& vector_lengths() {
  static const std::vector<int> vls = {128, 256, 512, 1024, 2048};
  return vls;
}

eval::ServiceConfig service_config(const Options& options) {
  eval::ServiceConfig config;
  config.threads = options.threads;
  config.batch_k = kBatchK;
  config.fused_threshold = kFusedThreshold;
  config.probe_every = kFusedProbeEvery;
  return config;
}

void warm_traces(eval::EvalService& service,
                 const std::vector<kernels::App>& apps) {
  Scope scope("eval.trace_warm");
  for (kernels::App app : apps) {
    for (int vl : vector_lengths()) service.trace(app, vl);
  }
}

/// Round loop: `round(r)` runs one round and returns its body seconds.
/// Traced runs trace odd rounds only and report the traced-vs-untraced
/// difference as obs.trace_overhead_pct.
void run_rounds(const Options& options, Report& report,
                const std::function<double(int)>& round) {
  const int min_rounds =
      options.trace ? std::max(4, options.scale.min_rounds)
                    : options.scale.min_rounds;
  std::vector<double> traced, untraced;
  Stopwatch total;
  for (int r = 0;; ++r) {
    const bool trace_this = options.trace && r % 2 == 1;
    spans().enable(trace_this);
    double body;
    {
      Scope scope("round");
      body = round(r);
    }
    spans().enable(false);
    (trace_this ? traced : untraced).push_back(body);
    if (r + 1 >= min_rounds && total.seconds() >= options.seconds) break;
  }
  report.setting("rounds", traced.size() + untraced.size());
  std::string seconds;
  for (const double s : untraced) {
    seconds += (seconds.empty() ? "" : " ") + std::to_string(s).substr(0, 6);
  }
  report.setting("untraced_round_s", seconds);
  if (options.trace) {
    const double base = median_of(untraced);
    report.metric("obs.trace_overhead_pct",
                  base > 0 ? 100.0 * (median_of(traced) - base) / base : 0.0,
                  "%");
  }
}

/// The configurations of a campaign table's first `count` rows, rebuilt
/// from the feature columns (the memo keys on exactly these features).
std::vector<config::CpuConfig> table_configs(const CsvTable& table,
                                             std::size_t count) {
  std::vector<config::CpuConfig> configs;
  for (std::size_t i = 0; i < std::min(count, table.rows.size()); ++i) {
    std::array<double, config::kNumParams> features{};
    std::copy_n(table.rows[i].begin(), config::kNumParams, features.begin());
    configs.push_back(config::config_from_features(features));
  }
  return configs;
}

/// Requests for the first `count` rows of a campaign table, every app.
std::vector<eval::EvalRequest> table_requests(const CsvTable& table,
                                              std::size_t count) {
  std::vector<eval::EvalRequest> requests;
  for (const auto& cpu : table_configs(table, count)) {
    for (kernels::App app : kernels::all_apps()) requests.push_back({cpu, app});
  }
  return requests;
}

/// Digest of every value of a campaign table, in row order.
std::uint64_t table_digest(const CsvTable& table) {
  std::uint64_t hash = kFnvBasis;
  for (const auto& row : table.rows) {
    for (const double v : row) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      hash = fnv_mix(hash, bits);
    }
  }
  return hash;
}

/// Number of (row, app) cells whose cycles are missing, non-positive or
/// non-finite — requests the campaign failed to answer.
std::uint64_t unanswered_cells(const campaign::CampaignResult& result) {
  std::uint64_t missing = 0;
  for (kernels::App app : kernels::all_apps()) {
    const std::size_t col =
        result.table.column_index(campaign::cycles_column(app));
    for (const auto& row : result.table.rows) {
      missing += (col < row.size() && std::isfinite(row[col]) && row[col] > 0)
                     ? 0
                     : 1;
    }
  }
  return missing;
}

/// The reference path the checks compare against: sim::simulate, on a trace
/// cache of its own, outside every timed window.
std::vector<sim::RunResult> reference_runs(
    const std::vector<eval::EvalRequest>& requests, int threads) {
  Scope scope("check.sim.simulate");
  eval::TraceCache traces;
  std::vector<sim::RunResult> out(requests.size());
  ThreadPool pool(static_cast<std::size_t>(threads));
  pool.parallel_for(requests.size(), [&](std::size_t i) {
    const eval::EvalRequest& r = requests[i];
    out[i] = sim::simulate(r.config,
                           traces.get(r.app, r.config.core.vector_length_bits));
  });
  return out;
}

/// Checks `responses` bit-identical to sim::simulate on the same requests.
void check_against_simulate(const std::vector<eval::EvalRequest>& requests,
                            const std::vector<eval::EvalResponse>& responses,
                            int threads, const std::string& what,
                            Report& report) {
  const auto reference = reference_runs(requests, threads);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].ok() ||
        run_digest(responses[i].run) != run_digest(reference[i])) {
      ++mismatches;
    }
  }
  report.check(what + " bit-identical to sim::simulate", mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(requests.size()) + " differ");
}

struct CounterSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t backend_runs = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t inflight_joins = 0;
  double batch_width_mean = 0.0;
};

CounterSnapshot snapshot(eval::EvalService& service) {
  obs::Registry& m = service.metrics();
  CounterSnapshot s;
  s.requests = m.counter("eval.requests").value();
  s.backend_runs = m.counter("eval.backend_runs").value();
  s.memo_hits = m.counter("eval.memo_hits").value();
  s.store_hits = m.counter("eval.store_hits").value();
  s.inflight_joins = m.counter("eval.inflight_joins").value();
  s.batch_width_mean = m.histogram("eval.batch_width").snapshot().mean();
  return s;
}

void report_counters(const Options& options, const CounterSnapshot& s,
                     Report& report) {
  auto record = options.trace ? &Report::metric : &Report::extra;
  (report.*record)("eval.requests", static_cast<double>(s.requests), "count");
  (report.*record)("eval.backend_runs", static_cast<double>(s.backend_runs),
                   "count");
  const double hits = static_cast<double>(s.memo_hits + s.store_hits);
  report.extra(
      "eval.memo_hit_pct",
      s.requests ? 100.0 * hits / static_cast<double>(s.requests) : 0.0, "%");
  report.extra("eval.inflight_joins", static_cast<double>(s.inflight_joins),
               "count");
  report.extra("eval.batch_width_mean", s.batch_width_mean, "lanes");
}

/// Times `fn` over `reps` repetitions of `count` items; returns ns per item.
double ns_per_item(std::size_t count, int reps,
                   const std::function<void()>& fn) {
  Stopwatch timer;
  for (int i = 0; i < reps; ++i) fn();
  return timer.seconds() * 1e9 /
         static_cast<double>(std::max<std::size_t>(1, count * reps));
}

/// Layer probes of a traced run: trace build/decode/summary for every trace
/// the workload uses; the batched engine on full K-lane batches of the
/// workload's configs (`pool`, up to K per vector length, for each app); and
/// the eval hit path, power, store and wire codec on a sample of the
/// workload's requests.
void probe_layers(const Options& options,
                  const std::vector<kernels::App>& apps,
                  const std::vector<config::CpuConfig>& pool,
                  const std::vector<eval::EvalRequest>& sample,
                  Report& report) {
  spans().enable(true);
  Scope probes("probes");
  {
    double build = 0, decode = 0, summarize = 0, uops = 0;
    for (kernels::App app : apps) {
      for (int vl : vector_lengths()) {
        Stopwatch t1;
        isa::Program program;
        {
          Scope s("kernels.build_app");
          program = kernels::build_app(app, vl);
        }
        build += t1.seconds();
        Stopwatch t2;
        {
          Scope s("core.DecodedTrace");
          core::DecodedTrace decoded(program);
        }
        decode += t2.seconds();
        Stopwatch t3;
        {
          Scope s("analysis.summarize_trace");
          (void)analysis::summarize_trace(program);
        }
        summarize += t3.seconds();
        uops += static_cast<double>(program.size());
      }
    }
    report.metric("kernels.build_ms", build * 1e3, "ms");
    report.metric("kernels.uops", uops, "count");
    report.metric("core.decode_ms", decode * 1e3, "ms");
    report.metric("analysis.summarize_ms", summarize * 1e3, "ms");
  }

  eval::ServiceConfig config = service_config(options);
  eval::EvalService service(config);
  std::vector<eval::EvalResponse> responses;
  {
    Scope s("eval.evaluate.fresh");
    responses = service.evaluate(sample);
  }
  for (const auto& r : responses) {
    if (!r.ok()) throw std::runtime_error("probe sample failed: " + r.error);
  }
  report.metric("eval.hit_ns", ns_per_item(sample.size(), 20, [&] {
                  Scope s("eval.evaluate.hits");
                  (void)service.evaluate(sample);
                }),
                "ns");

  // The batched engine the service dispatches to, single-threaded, one
  // batch of up to K configs per (app, VL), as the service groups them.
  {
    std::map<int, std::vector<config::CpuConfig>> by_vl;
    for (const auto& cpu : pool) {
      auto& group = by_vl[cpu.core.vector_length_bits];
      if (group.size() < static_cast<std::size_t>(kBatchK)) {
        group.push_back(cpu);
      }
    }
    double seconds = 0, uops = 0, cycles = 0, skipped = 0;
    double l1h = 0, l1m = 0, l2h = 0, l2m = 0, ram = 0, prefetch = 0;
    std::uint64_t windows = 0, lane_windows = 0;
    eval::TraceCache traces;
    for (kernels::App app : apps) {
      double app_seconds = 0, app_uops = 0, app_cycles = 0, app_skipped = 0;
      for (const auto& [vl, configs] : by_vl) {
        const isa::Program& trace = traces.get(app, vl);
        const core::DecodedTrace decoded(trace);
        core::BatchRunInfo info;
        Stopwatch timer;
        std::vector<sim::RunResult> results;
        {
          Scope s("sim.simulate_batch");
          results = sim::simulate_batch(configs, trace, decoded, &info);
        }
        app_seconds += timer.seconds();
        windows += info.windows;
        lane_windows += info.lane_windows;
        for (const sim::RunResult& run : results) {
          app_uops += static_cast<double>(run.core.retired);
          app_cycles += static_cast<double>(run.core.cycles);
          app_skipped += static_cast<double>(run.core.cycles_skipped);
          l1h += static_cast<double>(run.mem.l1_hits);
          l1m += static_cast<double>(run.mem.l1_misses);
          l2h += static_cast<double>(run.mem.l2_hits);
          l2m += static_cast<double>(run.mem.l2_misses);
          ram += static_cast<double>(run.mem.ram_requests);
          prefetch += static_cast<double>(run.mem.prefetch_fills);
        }
      }
      const std::string slug = kernels::app_slug(app);
      report.extra("sim.ns_per_uop." + slug, app_seconds * 1e9 / app_uops,
                   "ns");
      report.extra("sim.skip_pct." + slug, 100.0 * app_skipped / app_cycles,
                   "%");
      seconds += app_seconds;
      uops += app_uops;
      cycles += app_cycles;
      skipped += app_skipped;
    }
    report.metric("sim.ns_per_uop", seconds * 1e9 / uops, "ns");
    report.metric("sim.ns_per_cycle", seconds * 1e9 / cycles, "ns");
    report.metric("sim.skip_pct", 100.0 * skipped / cycles, "%");
    report.metric("sim.cycles", cycles, "cycles");
    report.metric("sim.batch_lanes_mean",
                  windows ? static_cast<double>(lane_windows) /
                                static_cast<double>(windows)
                          : 0.0,
                  "lanes");
    report.metric("mem.l1_hit_pct", 100.0 * l1h / std::max(1.0, l1h + l1m),
                  "%");
    report.metric("mem.l2_hit_pct", 100.0 * l2h / std::max(1.0, l2h + l2m),
                  "%");
    report.metric("mem.ram_requests", ram, "count");
    report.metric("mem.prefetch_fills", prefetch, "count");
  }

  report.metric("power.analyze_ns", ns_per_item(sample.size(), 200, [&] {
                  Scope s("power.analyze");
                  for (std::size_t i = 0; i < sample.size(); ++i) {
                    (void)power::analyze(sample[i].config,
                                         responses[i].run.core,
                                         responses[i].run.mem);
                  }
                }),
                "ns");

  // Store: append the sample's records until 1024 are on disk, then reload.
  {
    const std::string path = options.work_dir + "/probe-store.bin";
    fs::remove(path);
    const std::uint64_t tag =
        eval::ResultStore::tag(service.simulator().key());
    std::vector<eval::StoreRecord> records;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      records.push_back({tag, static_cast<std::int32_t>(sample[i].app),
                         config::feature_vector(sample[i].config),
                         responses[i].run.core, responses[i].run.mem,
                         responses[i].run.power});
    }
    constexpr std::size_t kRecords = 1024;
    double append_s = 0;
    {
      eval::ResultStore store(path);
      Stopwatch timer;
      Scope s("store.append");
      for (std::size_t i = 0; i < kRecords; ++i) {
        store.append(records[i % records.size()]);
      }
      append_s = timer.seconds();
    }
    Stopwatch timer;
    std::size_t loaded = 0;
    {
      Scope s("store.load");
      eval::ResultStore store(path);
      loaded = store.loaded().size();
    }
    const double load_s = timer.seconds();
    fs::remove(path);
    report.check("store reload returns every appended record",
                 loaded == kRecords, std::to_string(loaded) + " loaded");
    report.metric("store.append_us", append_s * 1e6 / kRecords, "us");
    report.metric("store.load_ms", load_s * 1e3 * 1000.0 / kRecords, "ms");
  }

  {
    std::vector<std::string> payloads;
    double frame_bytes = 0;
    for (const auto& r : responses) {
      payloads.push_back(eval::wire::encode_response(r));
      frame_bytes += static_cast<double>(
          eval::wire::encode_frame(eval::wire::FrameType::kEvalResponse, 1,
                                   payloads.back())
              .size());
    }
    report.metric("wire.encode_ns", ns_per_item(responses.size(), 200, [&] {
                    Scope s("wire.encode_response");
                    for (const auto& r : responses) {
                      (void)eval::wire::encode_response(r);
                    }
                  }),
                  "ns");
    std::size_t bad = 0;
    report.metric("wire.decode_ns", ns_per_item(payloads.size(), 200, [&] {
                    Scope s("wire.decode_response");
                    eval::EvalResponse decoded;
                    for (const auto& p : payloads) {
                      bad += eval::wire::decode_response(p, decoded) ? 0 : 1;
                    }
                  }),
                  "ns");
    report.check("wire codec decodes every encoded response", bad == 0);
    report.metric("wire.frame_bytes",
                  frame_bytes / static_cast<double>(responses.size()), "bytes");
  }
}

/// Round r's input seed: round 0 uses the run's seed, later rounds draw
/// fresh inputs so that a run averages over many independent inputs.
std::uint64_t round_seed(std::uint64_t seed, int round) {
  return seed + static_cast<std::uint64_t>(round) * 0x9e3779b97f4a7c15ULL;
}

/// Times `setup` Scale::setup_repeats times (each followed by `teardown`,
/// untimed) and returns the median — the set-up time a user pays per start.
double measure_setup(const Options& options, const std::function<void()>& setup,
                     const std::function<void()>& teardown) {
  std::vector<double> seconds;
  for (int i = 0; i < options.scale.setup_repeats; ++i) {
    Stopwatch timer;
    setup();
    seconds.push_back(timer.seconds());
    teardown();
  }
  return median_of(seconds);
}

void report_end_to_end(const Options& options, double setup_s,
                       double throughput, double latency_ms, Report& report) {
  if (options.trace) return;
  report.metric("setup_s", setup_s, "s");
  // Reported, not bounded: the peak depends on how thread-timed transients
  // overlap and creeps up with the number of rounds (10-30% run to run).
  report.extra("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("throughput_per_s", throughput, "1/s");
  report.metric("latency_p50_ms", latency_ms, "ms");
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// campaign: the paper's T1 -> T3 loop.

void run_campaign(const Options& options, Report& report) {
  report.why =
      "simulator + store write path: every config x app is a fresh sim on a "
      "hermetic service with a fresh on-disk store, then the CART "
      "accuracy/importance pass";
  const int n = options.scale.campaign_configs;
  report.setting("batch_k", kBatchK);
  report.setting("configs", n);
  const std::uint64_t expected_runs =
      static_cast<std::uint64_t>(n) * kernels::kNumApps;
  const std::string store = options.work_dir + "/campaign-store.bin";
  std::unique_ptr<eval::EvalService> service;
  const auto set_up = [&] {
    fs::remove(store);
    eval::ServiceConfig config = service_config(options);
    config.store_path = store;
    service = std::make_unique<eval::EvalService>(config);
    warm_traces(*service, kernels::all_apps());
  };
  const auto tear_down = [&] {
    service.reset();
    fs::remove(store);
  };
  const double setup_s = measure_setup(options, set_up, tear_down);

  std::vector<double> body_s;
  std::vector<analysis::SurrogateEvaluation> evals;
  std::vector<eval::EvalRequest> sample;
  std::vector<config::CpuConfig> pool;
  bool ml_probed = false;
  bool hermetic = true;
  run_rounds(options, report, [&](int round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    set_up();
    Stopwatch body;
    campaign::CampaignResult result;
    std::vector<analysis::SurrogateEvaluation> round_evals;
    {
      Scope s("campaign.run_campaign");
      campaign::CampaignSpec spec;
      spec.label = "perfbench";
      spec.num_configs = n;
      spec.seed = seed;
      spec.verbose = false;
      result = campaign::run_campaign(spec, *service);
    }
    for (kernels::App app : kernels::all_apps()) {
      Scope s("analysis.evaluate_surrogate");
      round_evals.push_back(
          analysis::evaluate_surrogate(app, result.dataset(app), seed));
    }
    const double seconds = body.seconds();
    body_s.push_back(seconds);

    report.attempted += expected_runs;
    report.failed += unanswered_cells(result);
    const CounterSnapshot counters = snapshot(*service);
    hermetic = hermetic && counters.backend_runs == expected_runs;
    if (round == 0) {
      evals = round_evals;
      report.pins["cycle_digest"] = hex64(table_digest(result.table));
      report_counters(options, counters, report);
      service->flush();
      const double appended =
          service->metrics().gauge("eval.store_appended").value();
      report.extra("store.appended", appended, "records");
      report.check("every result appended to the fresh store",
                   appended == static_cast<double>(expected_runs));
      pool = table_configs(result.table, result.table.rows.size());
      sample = table_requests(
          result.table, static_cast<std::size_t>(options.scale.check_configs));
      std::vector<eval::EvalResponse> served;
      {
        Scope s("check.eval.evaluate");
        served = service->evaluate(sample);
      }
      bool from_memo = true;
      for (const auto& r : served) {
        from_memo =
            from_memo && r.ok() && r.source == eval::ResultSource::kMemo;
      }
      report.check("sampled rows are served from the campaign's memo",
                   from_memo);
      check_against_simulate(sample, served, options.threads,
                             "sampled campaign rows", report);
    }
    if (spans().enabled() && !ml_probed) {
      // The steps evaluate_surrogate takes, timed one by one.
      ml_probed = true;
      double fit = 0, importance = 0, nodes = 0;
      for (kernels::App app : kernels::all_apps()) {
        Rng rng(seed ^ (0xabcdULL + static_cast<std::uint64_t>(app)));
        const auto split = ml::train_test_split(result.dataset(app), 0.8, rng);
        ml::DecisionTreeRegressor tree{ml::TreeOptions{}};
        Stopwatch t1;
        {
          Scope s("ml.tree_fit");
          tree.fit(split.train);
        }
        fit += t1.seconds();
        Stopwatch t2;
        {
          Scope s("ml.permutation_importance");
          (void)ml::permutation_importance(tree, split.test, rng);
        }
        importance += t2.seconds();
        nodes += static_cast<double>(tree.num_nodes());
      }
      report.extra("ml.tree_fit_ms", fit * 1e3, "ms");
      report.extra("ml.importance_ms", importance * 1e3, "ms");
      report.extra("ml.tree_nodes", nodes, "count");
    }
    tear_down();
    return seconds;
  });

  report.check("hermetic: backend runs == configs x apps in every round",
               hermetic);
  double accuracy = 0;
  std::string top;
  for (const auto& e : evals) {
    accuracy += e.mean_accuracy_percent;
    const std::string app = kernels::app_slug(e.app);
    report.extra("surrogate_accuracy_pct." + app, e.mean_accuracy_percent, "%");
    top += (top.empty() ? "" : ",") + app + ":" +
           config::param_name(static_cast<config::ParamId>(e.ranking.front()));
  }
  accuracy /= static_cast<double>(std::max<std::size_t>(1, evals.size()));
  char text[32];
  std::snprintf(text, sizeof(text), "%.6f", accuracy);
  report.pins["accuracy_pct"] = text;
  report.pins["top_params"] = top;

  const double throughput =
      n * static_cast<double>(body_s.size()) / sum(body_s);
  report.extra("campaign_configs_per_s", throughput, "configs/s");
  report.extra("surrogate_accuracy_pct", accuracy, "%");
  if (options.trace) {
    probe_layers(options, kernels::all_apps(), pool, sample, report);
  }
  report_end_to_end(options, setup_s, throughput, median_of(body_s) * 1e3,
                    report);
}

// ---------------------------------------------------------------------------
// search: surrogate-guided DSE at a fixed budget.

void run_search(const Options& options, Report& report) {
  report.why =
      "random-forest refits and acquisition scoring: small batches of 8 "
      "through the eval layer, simulator a small share";
  const int budget = options.scale.search_budget;
  report.setting("batch_k", kBatchK);
  report.setting("budget", budget);
  report.setting("objective", "single-app stream");
  std::unique_ptr<eval::EvalService> service;
  const auto set_up = [&] {
    service = std::make_unique<eval::EvalService>(service_config(options));
    warm_traces(*service, {kernels::App::kStream});
  };
  const auto tear_down = [&] { service.reset(); };
  const double setup_s = measure_setup(options, set_up, tear_down);

  std::vector<double> body_s;
  dse::SearchResult first;
  std::vector<eval::EvalRequest> sample;
  bool ml_probed = false;
  bool hermetic = true;
  run_rounds(options, report, [&](int round) {
    set_up();
    dse::SearchOptions search;
    search.label = "perfbench";
    search.objective = dse::Objective::kSingleApp;
    search.app = kernels::App::kStream;
    search.max_simulations = budget;
    search.seed = round_seed(options.seed, round);
    search.persist = false;
    search.verbose = false;
    Stopwatch body;
    dse::SearchResult result;
    {
      Scope s("dse.search");
      result = dse::search(search, *service);
    }
    const double seconds = body.seconds();
    body_s.push_back(seconds);

    report.attempted += static_cast<std::uint64_t>(budget);
    report.failed += static_cast<std::uint64_t>(budget) -
                     std::min<std::uint64_t>(budget, result.evaluated.size());
    const CounterSnapshot counters = snapshot(*service);
    hermetic = hermetic &&
               counters.backend_runs == static_cast<std::uint64_t>(budget);
    if (round == 0) {
      report_counters(options, counters, report);
      std::uint64_t digest = kFnvBasis;
      for (const auto& e : result.evaluated) {
        digest = fnv_mix(digest, static_cast<std::uint64_t>(e.cycles[0]));
      }
      report.pins["cycle_digest"] = hex64(digest);
      // Re-check the best configuration and a sample of the evaluations.
      sample.push_back({result.best().config, kernels::App::kStream});
      for (int i = 0; i < options.scale.check_configs &&
                      i < static_cast<int>(result.evaluated.size());
           ++i) {
        sample.push_back({result.evaluated[static_cast<std::size_t>(i)].config,
                          kernels::App::kStream});
      }
      std::vector<eval::EvalResponse> served;
      {
        Scope s("check.eval.evaluate");
        served = service->evaluate(sample);
      }
      report.check("best config's cycles match the service's result",
                   served.front().ok() &&
                       static_cast<double>(served.front().cycles()) ==
                           result.best().cycles[0]);
      check_against_simulate(sample, served, options.threads,
                             "best and sampled search evaluations", report);
      first = result;
    }
    if (spans().enabled() && !ml_probed) {
      // The surrogate at the search's final dataset size.
      ml_probed = true;
      ml::Dataset data;
      data.feature_names = campaign::feature_names();
      for (const auto& e : result.evaluated) {
        const auto f = config::feature_vector(e.config);
        data.add_row({f.begin(), f.end()}, std::log(e.cycles[0]));
      }
      ml::RandomForestRegressor forest(dse::default_surrogate_options());
      Stopwatch t1;
      {
        Scope s("ml.forest_fit");
        forest.fit(data);
      }
      report.extra("ml.forest_fit_ms", t1.seconds() * 1e3, "ms");
      Stopwatch t2;
      {
        Scope s("ml.forest_predict");
        (void)forest.predict_dist_all(data);
      }
      report.extra("ml.forest_predict_us",
                   t2.seconds() * 1e6 / static_cast<double>(data.num_rows()),
                   "us");
    }
    tear_down();
    return seconds;
  });

  report.check("hermetic: backend runs == simulation budget in every round",
               hermetic);
  std::vector<double> round_ms;
  double scored = 0;
  for (const auto& r : first.journal.rounds) {
    round_ms.push_back(r.round_seconds * 1e3);
    scored += r.pool_size;
  }
  report.extra("dse.rounds", static_cast<double>(round_ms.size()), "count");
  report.extra("dse.round_ms_p50", median_of(round_ms), "ms");
  report.extra("dse.round_ms_max",
               round_ms.empty() ? 0.0
                                : *std::max_element(round_ms.begin(),
                                                    round_ms.end()),
               "ms");
  report.extra("dse.candidates_scored", scored, "count");
  const double best = first.evaluated.empty() ? 0.0 : first.best().cycles[0];
  report.pins["best_cycles"] = std::to_string(static_cast<std::uint64_t>(best));

  const double search_s = median_of(body_s);
  report.extra("search_s", search_s, "s");
  report.extra("search_best_cycles", best, "cycles");
  if (options.trace) {
    std::vector<config::CpuConfig> pool;
    for (const auto& e : first.evaluated) pool.push_back(e.config);
    probe_layers(options, {kernels::App::kStream}, pool, sample, report);
  }
  report_end_to_end(options, setup_s,
                    budget * static_cast<double>(body_s.size()) / sum(body_s),
                    search_s * 1e3, report);
}

// ---------------------------------------------------------------------------
// serve: closed-loop clients against an in-process daemon.

void run_serve(const Options& options, Report& report) {
  report.why =
      "wire codec, daemon queues and memo: closed-loop clients, mostly store "
      "hits, one fresh config per ~1000 requests; store read path in set-up";
  const Scale& scale = options.scale;
  const int clients = options.threads;
  report.setting("batch_k", kBatchK);
  report.setting("daemon_workers", options.threads);
  report.setting("client_threads", clients);
  report.setting("hot_configs", scale.serve_hot_configs);
  report.setting("batch_size", scale.serve_batch_size);
  report.setting("fresh_every", scale.serve_fresh_every);
  report.setting("loop", "closed");

  const config::ParameterSpace space;
  std::vector<eval::EvalRequest> hot;
  for (int i = 0; i < scale.serve_hot_configs; ++i) {
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL +
            static_cast<std::uint64_t>(i) * 2 + 1);
    const config::CpuConfig cpu = space.sample(rng);
    for (kernels::App app : kernels::all_apps()) hot.push_back({cpu, app});
  }
  // Fresh configs cycle through every (VL, app) pair, so the simulation
  // work they add is the same for every seed.
  const std::size_t per_client =
      static_cast<std::size_t>(scale.serve_batches) * scale.serve_batch_size;
  const std::size_t total_b = per_client * static_cast<std::size_t>(clients);
  const std::size_t every = static_cast<std::size_t>(scale.serve_fresh_every);
  std::vector<eval::EvalRequest> fresh;
  for (std::size_t f = 0; f < total_b / every; ++f) {
    Rng rng((options.seed ^ 0x5eedf00dULL) * 0x9e3779b97f4a7c15ULL + f * 2 + 1);
    config::SampleConstraints constraints;
    constraints.fixed_vector_length =
        vector_lengths()[f % vector_lengths().size()];
    fresh.push_back({space.sample(rng, constraints),
                     kernels::all_apps()[(f / vector_lengths().size()) %
                                         kernels::kNumApps]});
  }

  // Pre-populate the store before anything is timed.
  const std::string pristine = options.work_dir + "/serve-hot.bin";
  const std::string store = options.work_dir + "/serve-store.bin";
  fs::remove(pristine);
  {
    eval::ServiceConfig config = service_config(options);
    config.store_path = pristine;
    eval::EvalService service(config);
    for (const auto& r : service.evaluate(hot)) {
      if (!r.ok()) {
        throw std::runtime_error("pre-population failed: " + r.error);
      }
    }
  }
  std::vector<std::uint64_t> expected(hot.size(), 0);
  {
    std::map<std::pair<int, std::array<double, config::kNumParams>>,
             std::uint64_t>
        by_key;
    eval::ResultStore reader(pristine);
    for (const auto& rec : reader.loaded()) {
      sim::RunResult run;
      run.core = rec.core;
      run.mem = rec.mem;
      run.power = rec.power;
      by_key[{rec.app, rec.features}] = run_digest(run);
    }
    std::size_t missing = 0;
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const auto it = by_key.find({static_cast<int>(hot[i].app),
                                   config::feature_vector(hot[i].config)});
      if (it == by_key.end()) {
        ++missing;
      } else {
        expected[i] = it->second;
      }
    }
    report.check("pre-populated store holds every hot result", missing == 0,
                 std::to_string(missing) + " missing");
    report.extra("store.loaded", static_cast<double>(reader.loaded().size()),
                 "records");
    // The fresh set's size follows the client count, so only the store's
    // contents are pinned; fresh misses are checked against sim::simulate.
    std::uint64_t digest = kFnvBasis;
    for (const std::uint64_t d : expected) digest = fnv_mix(digest, d);
    report.pins["store_digest"] = hex64(digest);
  }

  const std::string socket = options.work_dir + "/serve.sock";
  serve::ClientOptions client_options;
  client_options.socket_path = socket;
  client_options.timeout_ms = 60000;
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<serve::EvalClient> client;
  // Set-up: daemon start over a copy of the pre-populated store (the store
  // read path), trace warm-up, and a connected client.
  const auto set_up = [&] {
    serve::DaemonOptions daemon_options;
    daemon_options.socket_path = socket;
    daemon_options.workers = options.threads;
    daemon_options.service = service_config(options);
    daemon_options.service.threads = 1;  // workers evaluate inline
    daemon_options.service.store_path = store;
    {
      Scope s("serve.Daemon.start");
      daemon = std::make_unique<serve::Daemon>(daemon_options);
      daemon->start();
    }
    warm_traces(daemon->service(), kernels::all_apps());
    client = std::make_unique<serve::EvalClient>(client_options);
    if (!client->ping()) throw std::runtime_error("daemon did not answer ping");
  };
  const auto tear_down = [&] {
    Scope s("serve.drain");
    client.reset();
    daemon->drain();
    daemon->wait();
    daemon.reset();
    fs::copy_file(pristine, store, fs::copy_options::overwrite_existing);
  };
  fs::copy_file(pristine, store, fs::copy_options::overwrite_existing);
  const double setup_s = measure_setup(options, set_up, tear_down);

  std::vector<double> batch_s, hit_us, server_p50, server_p99, gaps, imbalance;
  std::vector<std::uint64_t> fresh_digests;
  std::vector<eval::EvalResponse> fresh_responses(fresh.size());
  std::atomic<std::uint64_t> failed{0}, hit_mismatch{0}, fresh_mismatch{0};
  std::atomic<std::uint64_t> next_request{1};
  bool fresh_runs_ok = true;

  run_rounds(options, report, [&](int round) {
    set_up();
    // (a) blocking single-request hits: latency.
    std::vector<double> round_hits;
    {
      Scope phase("serve.phase_hits");
      for (int i = 0; i < scale.serve_hit_requests; ++i) {
        const std::size_t idx =
            (static_cast<std::size_t>(i) * 7919) % hot.size();
        const std::uint64_t id = next_request++;
        Stopwatch timer;
        eval::EvalResponse response;
        {
          Scope s("serve.request", -1, id);
          response = client->evaluate(std::span(&hot[idx], 1)).front();
        }
        round_hits.push_back(timer.seconds() * 1e6);
        if (!response.ok()) {
          ++failed;
        } else if (run_digest(response.run) != expected[idx]) {
          ++hit_mismatch;
        }
      }
    }

    // (b) pipelined batches from every client connection: throughput.
    Stopwatch phase_b;
    {
      Scope phase("serve.phase_batches");
      const int parent = phase.id();
      std::mutex client_error_mutex;
      std::exception_ptr client_error;
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          try {
            serve::EvalClient conn(client_options);
            for (int b = 0; b < scale.serve_batches; ++b) {
              std::vector<eval::EvalRequest> batch;
              std::vector<std::size_t> source;  // hot index or SIZE_MAX - fresh
              for (int p = 0; p < scale.serve_batch_size; ++p) {
                const std::size_t g =
                    (static_cast<std::size_t>(c) * scale.serve_batches + b) *
                        scale.serve_batch_size + p;
                if (g % every == every - 1 && g / every < fresh.size()) {
                  batch.push_back(fresh[g / every]);
                  source.push_back(SIZE_MAX - g / every);
                } else {
                  const std::size_t idx = (g * 31 + 7) % hot.size();
                  batch.push_back(hot[idx]);
                  source.push_back(idx);
                }
              }
              std::vector<eval::EvalResponse> responses;
              {
                Scope s("serve.batch", parent, next_request++);
                responses = conn.evaluate(batch);
              }
              for (std::size_t k = 0; k < responses.size(); ++k) {
                if (!responses[k].ok()) {
                  ++failed;
                } else if (source[k] < hot.size()) {
                  if (run_digest(responses[k].run) != expected[source[k]]) {
                    ++hit_mismatch;
                  }
                } else {
                  fresh_responses[SIZE_MAX - source[k]] = responses[k];
                }
              }
            }
          } catch (...) {
            std::lock_guard<std::mutex> lock(client_error_mutex);
            if (!client_error) client_error = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      if (client_error) std::rethrow_exception(client_error);
    }
    const double seconds = phase_b.seconds();
    batch_s.push_back(seconds);
    hit_us.insert(hit_us.end(), round_hits.begin(), round_hits.end());
    report.attempted += static_cast<std::uint64_t>(scale.serve_hit_requests) +
                        total_b;

    obs::Registry& metrics = daemon->service().metrics();
    const auto& server = metrics.histogram("serve.request_ns");
    server_p50.push_back(server.quantile(0.5) / 1e3);
    server_p99.push_back(server.quantile(0.99) / 1e3);
    gaps.push_back(median_of(round_hits) - server.quantile(0.5) / 1e3);
    double max_d = 0, sum_d = 0;
    for (std::size_t w = 0; w < daemon->workers(); ++w) {
      const double d = static_cast<double>(
          metrics.counter("serve.shard" + std::to_string(w) + ".dispatched")
              .value());
      max_d = std::max(max_d, d);
      sum_d += d;
    }
    imbalance.push_back(
        sum_d > 0 ? max_d / (sum_d / static_cast<double>(daemon->workers()))
                  : 0.0);
    const CounterSnapshot counters = snapshot(daemon->service());
    fresh_runs_ok = fresh_runs_ok && counters.backend_runs == fresh.size();
    if (round == 0) report_counters(options, counters, report);
    tear_down();

    std::vector<std::uint64_t> digests;
    for (const auto& r : fresh_responses) digests.push_back(run_digest(r.run));
    if (round == 0) {
      fresh_digests = digests;
      check_against_simulate(fresh, fresh_responses, options.threads,
                             "fresh serve misses", report);
    } else if (digests != fresh_digests) {
      ++fresh_mismatch;
    }
    return seconds;
  });
  fs::remove(pristine);
  fs::remove(store);

  report.failed += failed.load();
  report.check("every serve response ok", failed.load() == 0,
               std::to_string(failed.load()) + " failed");
  report.check("every hit bit-matches the pre-populated store",
               hit_mismatch.load() == 0,
               std::to_string(hit_mismatch.load()) + " differ");
  report.check("fresh misses identical in every round",
               fresh_mismatch.load() == 0);
  report.check("hermetic: backend runs == fresh configs in every round",
               fresh_runs_ok);

  const Tail tail = tail_of(hit_us);
  const double rps =
      static_cast<double>(total_b) * static_cast<double>(batch_s.size()) /
      sum(batch_s);
  report.extra("serve_rps", rps, "req/s");
  report.extra("serve_hit_p50_us", tail.p50, "us");
  if (!tail.label.empty()) {
    report.extra("serve_hit_" + tail.label + "_us", tail.value, "us");
  }
  report.extra("serve_hit_samples", static_cast<double>(tail.samples), "count");
  report.extra("serve.server_p50_us", median_of(server_p50), "us");
  report.extra("serve.server_p99_us", median_of(server_p99), "us");
  report.extra("serve.client_gap_p50_us", median_of(gaps), "us");
  report.extra("serve.shard_imbalance", median_of(imbalance), "max/mean");
  if (options.trace) {
    std::vector<eval::EvalRequest> sample(
        hot.begin(),
        hot.begin() + std::min<std::ptrdiff_t>(
                          static_cast<std::ptrdiff_t>(hot.size()),
                          scale.check_configs * kernels::kNumApps));
    std::vector<config::CpuConfig> pool;
    for (std::size_t i = 0; i < hot.size(); i += kernels::kNumApps) {
      pool.push_back(hot[i].config);
    }
    probe_layers(options, kernels::all_apps(), pool, sample, report);
  }
  report_end_to_end(options, setup_s, rps, tail.p50 / 1e3, report);
}

// ---------------------------------------------------------------------------
// fused_campaign: the routed campaign (analytical bound x learned residual).

void run_fused(const Options& options, Report& report) {
  report.why =
      "fused router and analytical features: most app-evals answered by the "
      "surrogate, real sims only for warm-up, uncertain points and probes";
  const int n = options.scale.fused_configs;
  report.setting("batch_k", kBatchK);
  report.setting("configs", n);
  report.setting("fused_threshold", std::to_string(kFusedThreshold));
  report.setting("fused_probe_every", kFusedProbeEvery);
  const std::uint64_t expected_runs =
      static_cast<std::uint64_t>(n) * kernels::kNumApps;
  const eval::ServiceConfig config = service_config(options);
  std::unique_ptr<eval::EvalService> service;
  std::unique_ptr<eval::FusedModel> model;
  const auto set_up = [&] {
    service = std::make_unique<eval::EvalService>(config);
    model = std::make_unique<eval::FusedModel>(config.fused_options());
    warm_traces(*service, kernels::all_apps());
    Scope s("fused.summary_warm");
    for (kernels::App app : kernels::all_apps()) {
      for (int vl : vector_lengths()) (void)model->summary(app, vl);
    }
  };
  const auto tear_down = [&] {
    model.reset();
    service.reset();
  };
  const double setup_s = measure_setup(options, set_up, tear_down);

  std::vector<double> body_s;
  double accuracy = 0, error_p50 = 0, surrogate = 0, real = 0, refits = 0;
  std::vector<eval::EvalRequest> sample;
  std::vector<config::CpuConfig> pool;
  bool probed = false;
  bool answered = true, routed_all = true;
  run_rounds(options, report, [&](int round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    set_up();
    Stopwatch body;
    campaign::CampaignResult result;
    double round_accuracy = 0;
    {
      Scope s("campaign.run_campaign");
      campaign::CampaignSpec spec;
      spec.label = "perfbench-fused";
      spec.num_configs = n;
      spec.seed = seed;
      spec.verbose = false;
      spec.fused = model.get();
      result = campaign::run_campaign(spec, *service);
    }
    for (kernels::App app : kernels::all_apps()) {
      Scope s("analysis.evaluate_surrogate");
      round_accuracy +=
          analysis::evaluate_surrogate(app, result.dataset(app), seed)
              .mean_accuracy_percent;
    }
    const double seconds = body.seconds();
    body_s.push_back(seconds);

    report.attempted += expected_runs;
    const std::uint64_t unanswered = unanswered_cells(result);
    report.failed += unanswered;
    obs::Registry& m = service->metrics();
    const double round_real =
        static_cast<double>(m.counter("eval.routed_sim").value());
    const double round_surrogate =
        static_cast<double>(m.counter("eval.routed_surrogate").value());
    answered = answered && unanswered == 0;
    routed_all = routed_all && round_real + round_surrogate ==
                                   static_cast<double>(expected_runs);
    if (round == 0) {
      report.pins["cycle_digest"] = hex64(table_digest(result.table));
      accuracy = round_accuracy / kernels::kNumApps;
      error_p50 = m.histogram("eval.routing_error_pct").quantile(0.5);
      real = round_real;
      surrogate = round_surrogate;
      refits = static_cast<double>(m.counter("eval.residual_refits").value());
      report_counters(options, snapshot(*service), report);
      pool = table_configs(result.table, result.table.rows.size());
      // Rows the router sent to the simulator are memo hits on the plain
      // path; their table cycles must match sim::simulate bit for bit.
      const auto candidates = table_requests(
          result.table, static_cast<std::size_t>(options.scale.check_configs));
      std::vector<eval::EvalResponse> served;
      {
        Scope s("check.eval.evaluate");
        served = service->evaluate(candidates);
      }
      std::vector<eval::EvalResponse> real_served;
      bool table_matches = true;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (served[i].ok() && served[i].source == eval::ResultSource::kMemo) {
          sample.push_back(candidates[i]);
          real_served.push_back(served[i]);
          const std::size_t col = result.table.column_index(
              campaign::cycles_column(candidates[i].app));
          table_matches =
              table_matches && result.table.rows[i / kernels::kNumApps][col] ==
                                   static_cast<double>(served[i].cycles());
        }
      }
      report.check("sampled rows include real-simulated results",
                   !sample.empty());
      report.check("real-sim table cycles match the service's results",
                   table_matches);
      check_against_simulate(sample, real_served, options.threads,
                             "real-simulated routed rows", report);
    }
    if (spans().enabled() && !probed) {
      probed = true;
      std::vector<eval::EvalRequest> requests = table_requests(
          result.table, static_cast<std::size_t>(options.scale.check_configs));
      report.extra("fused.predict_us", ns_per_item(requests.size(), 50, [&] {
                     Scope s("fused.predict");
                     for (const auto& r : requests) {
                       (void)model->predict(r.app, r.config);
                     }
                   }) / 1e3,
                   "us");
      report.extra("analysis.analyze_ns",
                   ns_per_item(requests.size(), 500, [&] {
                     Scope s("analysis.analyze");
                     for (const auto& r : requests) {
                       (void)analysis::analyze(
                           model->summary(r.app,
                                          r.config.core.vector_length_bits),
                           r.config);
                     }
                   }),
                   "ns");
    }
    tear_down();
    return seconds;
  });

  report.check("every routed request answered in every round", answered);
  report.check("routed sim + surrogate answers == configs x apps", routed_all);
  report.pins["real_sims"] = std::to_string(static_cast<std::uint64_t>(real));
  char text[32];
  std::snprintf(text, sizeof(text), "%.6f", error_p50);
  report.pins["error_p50_pct"] = text;

  const double throughput =
      n * static_cast<double>(body_s.size()) / sum(body_s);
  report.extra("fused_configs_per_s", throughput, "configs/s");
  report.extra("fused_error_p50_pct", error_p50, "%");
  report.extra("fused_accuracy_pct", accuracy, "%");
  report.extra("fused.surrogate_pct",
               100.0 * surrogate / static_cast<double>(expected_runs), "%");
  report.extra("fused.real_sims", real, "count");
  report.extra("fused.refits", refits, "count");
  if (options.trace) {
    probe_layers(options, kernels::all_apps(), pool, sample, report);
  }
  report_end_to_end(options, setup_s, throughput, median_of(body_s) * 1e3,
                    report);
}

}  // namespace perfbench
