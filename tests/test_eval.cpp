#include "eval/service.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "config/baselines.hpp"
#include "eval/fused.hpp"
#include "eval/result_store.hpp"
#include "eval/trace_cache.hpp"
#include "ml/forest.hpp"
#include "sim/simulation.hpp"
#include "sim/stats_report.hpp"

namespace adse::eval {
namespace {

/// Deterministic fake backend that counts how many times it actually runs —
/// the probe for the service's dedup guarantees.
class CountingBackend final : public Backend {
 public:
  explicit CountingBackend(std::string key = "mock") : key_(std::move(key)) {}

  const std::string& key() const override { return key_; }
  bool needs_trace() const override { return false; }

  sim::RunResult run(const config::CpuConfig& config, kernels::App app,
                     const isa::Program&) const override {
    runs_.fetch_add(1, std::memory_order_relaxed);
    // Widen the race window so concurrent identical requests really overlap.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sim::RunResult result;
    result.core.cycles = 1000 + static_cast<std::uint64_t>(app) * 10 +
                         static_cast<std::uint64_t>(config.core.rob_size);
    result.core.retired = 17;
    result.mem.l1_hits = 5;
    return result;
  }

  std::uint64_t runs() const { return runs_.load(); }

 private:
  std::string key_;
  mutable std::atomic<std::uint64_t> runs_{0};
};

EvalRequest stream_request() {
  return {config::thunderx2_baseline(), kernels::App::kStream};
}

/// Hermetic service options: explicit thread count, optional on-disk store.
EvalOptions hermetic(int threads, std::string store_path = {}) {
  EvalOptions options;
  options.threads = threads;
  options.store_path = std::move(store_path);
  return options;
}

/// One of the service's named registry counters ("eval.backend_runs", ...).
std::uint64_t counter(const EvalService& service, const char* name) {
  return service.metrics().counter(name).value();
}

/// Records the service's store persisted, as its flushed gauge reports.
double store_appended(EvalService& service) {
  service.flush();
  return service.metrics().gauge("eval.store_appended").value();
}

TEST(EvalService, ConcurrentIdenticalRequestsRunBackendOnce) {
  EvalService service(hermetic(4));
  CountingBackend backend;
  const EvalRequest request = stream_request();

  constexpr int kThreads = 8;
  std::vector<EvalResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          service.evaluate_one(request, &backend);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(backend.runs(), 1u);
  for (const EvalResult& r : results) {
    EXPECT_EQ(r.cycles(), results.front().cycles());
    EXPECT_EQ(r.run.core.retired, 17u);
    EXPECT_EQ(r.run.app, "stream");
    EXPECT_EQ(r.run.config_name, request.config.name);
  }
  EXPECT_EQ(counter(service, "eval.requests"),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(counter(service, "eval.backend_runs"), 1u);
  EXPECT_EQ(counter(service, "eval.memo_hits") +
                counter(service, "eval.inflight_joins"),
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(EvalService, BatchDuplicatesCollapse) {
  EvalService service(hermetic(4));
  CountingBackend backend;
  const std::vector<EvalRequest> requests(12, stream_request());

  EvalPolicy policy;
  policy.backend = &backend;
  const auto results = service.evaluate(requests, policy);
  ASSERT_EQ(results.size(), 12u);
  EXPECT_EQ(backend.runs(), 1u);
  for (const EvalResult& r : results) {
    EXPECT_EQ(r.cycles(), results.front().cycles());
  }
}

TEST(EvalService, MemoServesRepeats) {
  EvalService service(hermetic(1));
  CountingBackend backend;

  const EvalResult first = service.evaluate_one(stream_request(), &backend);
  const EvalResult again = service.evaluate_one(stream_request(), &backend);
  EXPECT_EQ(first.source, ResultSource::kBackend);
  EXPECT_EQ(again.source, ResultSource::kMemo);
  EXPECT_EQ(again.cycles(), first.cycles());
  EXPECT_EQ(backend.runs(), 1u);
}

TEST(EvalService, DistinctPointsAndBackendsDoNotAlias) {
  EvalService service(hermetic(2));
  CountingBackend a("mock-a");
  CountingBackend b("mock-b");

  EvalRequest stream = stream_request();
  EvalRequest bude{config::thunderx2_baseline(), kernels::App::kMiniBude};
  service.evaluate_one(stream, &a);
  service.evaluate_one(bude, &a);   // different app: fresh run
  service.evaluate_one(stream, &b); // different backend: fresh run
  EXPECT_EQ(a.runs(), 2u);
  EXPECT_EQ(b.runs(), 1u);
  EXPECT_EQ(counter(service, "eval.backend_runs"), 3u);
}

TEST(EvalService, MatchesDirectSimulation) {
  EvalService service(hermetic(1));
  const config::CpuConfig cpu = config::thunderx2_baseline();

  const sim::RunResult direct = sim::simulate_app(cpu, kernels::App::kStream);
  const EvalResult served = service.evaluate_one(stream_request());
  EXPECT_EQ(served.run.core.cycles, direct.core.cycles);
  EXPECT_EQ(served.run.core.retired, direct.core.retired);
  EXPECT_EQ(served.run.mem.l1_hits, direct.mem.l1_hits);
  EXPECT_EQ(served.run.mem.ram_requests, direct.mem.ram_requests);
  EXPECT_EQ(served.run.app, direct.app);
  EXPECT_EQ(served.run.config_name, direct.config_name);

  // A memo hit reproduces the same result, labels included.
  const EvalResult memo = service.evaluate_one(stream_request());
  EXPECT_EQ(memo.source, ResultSource::kMemo);
  EXPECT_EQ(memo.run.core.cycles, direct.core.cycles);
  EXPECT_EQ(memo.run.app, direct.app);
  EXPECT_EQ(memo.run.config_name, direct.config_name);
}

TEST(EvalService, StoreReuseAcrossServices) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_eval_reuse";
  std::filesystem::remove_all(dir);
  const std::string store = (dir / "eval_store.bin").string();

  CountingBackend first_backend;
  {
    EvalService service(hermetic(1, store));
    service.evaluate_one(stream_request(), &first_backend);
    EXPECT_EQ(store_appended(service), 1.0);
  }
  EXPECT_EQ(first_backend.runs(), 1u);

  // A new service on the same store serves the point from disk — zero
  // backend runs, identical counters.
  CountingBackend second_backend;
  EvalService warm(hermetic(1, store));
  const EvalResult served = warm.evaluate_one(stream_request(), &second_backend);
  EXPECT_EQ(served.source, ResultSource::kStore);
  EXPECT_EQ(second_backend.runs(), 0u);
  EXPECT_EQ(served.run.core.retired, 17u);
  EXPECT_EQ(served.run.mem.l1_hits, 5u);
  EXPECT_EQ(warm.metrics().gauge("eval.store_loaded").value(), 1.0);
  EXPECT_EQ(counter(warm, "eval.store_hits"), 1u);
  EXPECT_EQ(counter(warm, "eval.backend_runs"), 0u);

  std::filesystem::remove_all(dir);
}

TEST(EvalService, SurrogateBackendIsNotPersisted) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_eval_surr";
  std::filesystem::remove_all(dir);
  const std::string store = (dir / "eval_store.bin").string();

  // Tiny forests fitted on two synthetic points, targets in log(cycles).
  ml::Dataset data;
  for (std::size_t f = 0; f < config::kNumParams; ++f) {
    data.feature_names.push_back("f" + std::to_string(f));
  }
  const auto lo = config::feature_vector(config::thunderx2_baseline());
  const auto hi = config::feature_vector(config::a64fx_like());
  data.add_row({lo.begin(), lo.end()}, std::log(50000.0));
  data.add_row({hi.begin(), hi.end()}, std::log(90000.0));

  ml::ForestOptions options;
  options.num_trees = 3;
  std::array<ml::RandomForestRegressor, kernels::kNumApps> forests{
      ml::RandomForestRegressor(options), ml::RandomForestRegressor(options),
      ml::RandomForestRegressor(options), ml::RandomForestRegressor(options)};
  for (auto& forest : forests) forest.fit(data);
  const SurrogateForestBackend surrogate(std::move(forests), true);
  EXPECT_FALSE(surrogate.persistable());
  EXPECT_FALSE(surrogate.needs_trace());

  EvalService service(hermetic(1, store));
  const EvalResult predicted =
      service.evaluate_one(stream_request(), &surrogate);
  EXPECT_GE(predicted.cycles(), 1u);
  EXPECT_EQ(predicted.source, ResultSource::kBackend);
  // Model output must never reach the on-disk store.
  EXPECT_EQ(store_appended(service), 0.0);
  // But it is memoised like any other backend.
  EXPECT_EQ(service.evaluate_one(stream_request(), &surrogate).source,
            ResultSource::kMemo);

  std::filesystem::remove_all(dir);
}

/// Makes `model` ready for kStream by feeding `n` distinct synthetic
/// observations (rob_size varied; cycles = analytical bound × residual(i)).
/// Pick min_observations == n so the single refit trains on every row.
void train_stream(FusedModel& model, int n, double (*residual)(int)) {
  for (int i = 0; i < n; ++i) {
    config::CpuConfig cfg = config::thunderx2_baseline();
    cfg.core.rob_size = 64 + 16 * i;
    const double bound =
        model.predict(kernels::App::kStream, cfg).analytical_min;
    model.observe(kernels::App::kStream, cfg, bound * std::exp(residual(i)));
  }
}

TEST(EvalService, FusedBackendIsNotPersisted) {
  const auto dir = std::filesystem::temp_directory_path() / "adse_eval_fused";
  std::filesystem::remove_all(dir);
  const std::string store = (dir / "eval_store.bin").string();

  FusedOptions options;
  options.forest.num_trees = 3;
  options.min_observations = 6;
  FusedModel model(options);
  train_stream(model, 6,
               [](int i) { return 0.5 + 0.01 * static_cast<double>(i); });
  EXPECT_GE(model.refits(), 1u);
  const FusedBackend fused(model);
  EXPECT_FALSE(fused.persistable());
  EXPECT_FALSE(fused.needs_trace());

  {
    EvalService service(hermetic(1, store));
    const EvalResult predicted =
        service.evaluate_one(stream_request(), &fused);
    EXPECT_GE(predicted.cycles(), 1u);
    EXPECT_EQ(predicted.source, ResultSource::kBackend);
    // Model output must never reach the on-disk store.
    EXPECT_EQ(store_appended(service), 0.0);
    // But it is memoised like any other backend.
    EXPECT_EQ(service.evaluate_one(stream_request(), &fused).source,
              ResultSource::kMemo);
    // A real simulator run of the very same point IS persisted — the store
    // now holds this (config, app) under the simulator's key only.
    service.evaluate_one(stream_request());
    EXPECT_EQ(store_appended(service), 1.0);
  }

  // The warm store must not satisfy fused-backend keys: the same request
  // through the fused backend runs the model afresh instead of aliasing the
  // persisted simulator record.
  EvalService warm(hermetic(1, store));
  EXPECT_EQ(warm.metrics().gauge("eval.store_loaded").value(), 1.0);
  const EvalResult served = warm.evaluate_one(stream_request(), &fused);
  EXPECT_EQ(served.source, ResultSource::kBackend);
  EXPECT_EQ(counter(warm, "eval.store_hits"), 0u);
  // While the simulator-keyed request still hits the disk record.
  EXPECT_EQ(warm.evaluate_one(stream_request()).source, ResultSource::kStore);

  std::filesystem::remove_all(dir);
}

TEST(EvalService, RoutedEvaluationGatesOnResidualSpread) {
  // Two training clusters for kStream: small-ROB configs carry an exactly
  // constant residual (every tree's leaves agree there → spread ~0); the
  // large-ROB cluster's residuals are seeded noise (bootstrap resamples
  // disagree → positive spread). The routing threshold is then calibrated
  // between the two measured spreads, making the gate's decision — answer
  // the confident query from the model, simulate the uncertain one —
  // deterministic.
  FusedOptions options;
  options.forest.num_trees = 12;
  options.probe_every = 0;  // no probe clock: pure threshold routing
  options.round_size = 8;
  options.min_observations = 32;
  FusedModel model(options);
  Rng noise(7);
  for (int i = 0; i < 32; ++i) {
    config::CpuConfig cfg = config::thunderx2_baseline();
    const bool low_cluster = i < 16;
    cfg.core.rob_size = low_cluster ? 32 + 2 * i : 448 + 2 * i;
    const double bound =
        model.predict(kernels::App::kStream, cfg).analytical_min;
    const double residual = low_cluster ? 0.5 : 0.5 + noise.uniform01();
    model.observe(kernels::App::kStream, cfg, bound * std::exp(residual));
  }
  ASSERT_GE(model.refits(), 1u);

  config::CpuConfig confident = config::thunderx2_baseline();
  confident.core.rob_size = 49;  // inside the constant-residual cluster
  config::CpuConfig uncertain = config::thunderx2_baseline();
  uncertain.core.rob_size = 497;  // inside the noisy cluster
  const FusedPrediction p_lo = model.predict(kernels::App::kStream, confident);
  const FusedPrediction p_hi = model.predict(kernels::App::kStream, uncertain);
  ASSERT_TRUE(p_lo.ready);
  ASSERT_TRUE(p_hi.ready);
  ASSERT_LT(p_lo.spread, p_hi.spread);
  model.set_threshold((p_lo.spread + p_hi.spread) / 2.0);

  EvalService service(hermetic(1));
  CountingBackend sim;
  const std::vector<EvalRequest> requests = {
      {confident, kernels::App::kStream}, {uncertain, kernels::App::kStream}};
  EvalPolicy routed;
  routed.backend = &sim;
  routed.fused = &model;
  const auto results = service.evaluate(requests, routed);
  ASSERT_EQ(results.size(), 2u);

  // Only the uncertain config paid for a backend run; the confident one was
  // answered by the model, and the counters record the split.
  EXPECT_EQ(sim.runs(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.routed_surrogate").value(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.routed_sim").value(), 1u);
  EXPECT_EQ(service.metrics().counter("eval.fused_probes").value(), 0u);
  // The surrogate answer matches the model's direct prediction; the sim
  // answer matches the counting backend's formula.
  EXPECT_EQ(results[0].cycles(),
            static_cast<std::uint64_t>(std::llround(p_lo.cycles)));
  EXPECT_EQ(results[1].cycles(), 1000 + 497u);

  // Threshold 0 routes nothing: the same batch re-runs entirely on the
  // simulator (memo-served here, since the points are already cached).
  model.set_threshold(0.0);
  const auto all_sim = service.evaluate(requests, routed);
  EXPECT_EQ(service.metrics().counter("eval.routed_surrogate").value(), 1u);
  EXPECT_EQ(all_sim[1].cycles(), results[1].cycles());
}

// --- store format compatibility ---------------------------------------------

StoreRecord sample_record(int app, double feature0, std::uint64_t cycles) {
  StoreRecord r;
  r.backend_tag = ResultStore::tag("sim");
  r.app = app;
  r.features = config::feature_vector(config::thunderx2_baseline());
  r.features[0] = feature0;
  r.core.cycles = cycles;
  r.core.retired = 42;
  r.core.sve_lane_ops = 7;
  r.mem.l1_hits = 9;
  r.mem.l1_reads = 6;
  r.power.dynamic_j = 1.5e-6;
  r.power.leakage_j = 2.5e-7;
  r.power.area_mm2 = 3.25;
  return r;
}

TEST(ResultStoreCompat, V1HeaderedFileIsRebuiltAsEmptyV2) {
  // The retired pre-power format ("ADSEVAL1") takes the stale-header path:
  // nothing loads, the file is rewritten as an empty v2 store, and appends
  // to it survive a reopen.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("adse_store_v1_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "eval_store.bin").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t fields[3] = {1, config::kNumParams, 8 * 100};
    std::fwrite("ADSEVAL1", 1, 8, f);
    std::fwrite(fields, sizeof(fields[0]), 3, f);
    const std::string record(8 * 100, '\x01');
    std::fwrite(record.data(), 1, record.size(), f);
    std::fclose(f);
  }
  {
    ResultStore store(path);
    EXPECT_TRUE(store.loaded().empty());
    store.append(sample_record(2, 512, 3000));
    EXPECT_EQ(store.appended(), 1u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[8] = {};
  ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
  std::fclose(f);
  EXPECT_EQ(std::string(magic, 8), "ADSEVAL2");
  // Header = 8-byte magic + 3 uint32 fields; then one fixed-size record.
  EXPECT_EQ(std::filesystem::file_size(path),
            8 + 3 * sizeof(std::uint32_t) + ResultStore::record_bytes());

  ResultStore reopened(path);
  ASSERT_EQ(reopened.loaded().size(), 1u);
  const StoreRecord& back = reopened.loaded()[0];
  EXPECT_EQ(back.app, 2);
  EXPECT_EQ(back.features[0], 512.0);
  EXPECT_EQ(back.core.cycles, 3000u);
  EXPECT_EQ(back.core.sve_lane_ops, 7u);
  EXPECT_EQ(back.mem.l1_reads, 6u);
  EXPECT_DOUBLE_EQ(back.power.dynamic_j, 1.5e-6);
  EXPECT_DOUBLE_EQ(back.power.leakage_j, 2.5e-7);
  EXPECT_DOUBLE_EQ(back.power.area_mm2, 3.25);
  std::filesystem::remove_all(dir);
}

TEST(EvalService, ProxyKeyEncodesFidelityKnobs) {
  const HardwareProxyBackend defaults;
  sim::ProxyOptions tweaked;
  tweaked.mshr_entries = 4;
  const HardwareProxyBackend other(tweaked);
  EXPECT_NE(defaults.key(), other.key());
  EXPECT_EQ(defaults.key(), HardwareProxyBackend().key());
}

TEST(EvalService, SummaryLineReportsFreshRuns) {
  EvalService service(hermetic(1));
  CountingBackend backend;
  service.evaluate_one(stream_request(), &backend);
  service.evaluate_one(stream_request(), &backend);
  const std::string line = service.summary_line();
  EXPECT_NE(line.find("[eval] fresh simulator runs: 1"), std::string::npos);
  EXPECT_NE(line.find("memo hits: 1"), std::string::npos);
  const std::string table = service.cache_table();
  EXPECT_NE(table.find("requests served"), std::string::npos);
}

TEST(TraceCacheCounters, HitsAndBuilds) {
  TraceCache cache;
  const isa::Program& first = cache.get(kernels::App::kStream, 256);
  const isa::Program& again = cache.get(kernels::App::kStream, 256);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.get(kernels::App::kStream, 512);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest -j runs each case as its own process; the dir must be unique per
    // case or concurrently scheduled cases would clobber each other's store.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("adse_eval_store_") + info->name());
    std::filesystem::remove_all(dir_);
    path_ = (dir_ / "store.bin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static StoreRecord record(std::uint64_t seed) {
    StoreRecord r;
    r.backend_tag = ResultStore::tag("sim");
    r.app = static_cast<std::int32_t>(seed % 4);
    for (std::size_t f = 0; f < r.features.size(); ++f) {
      r.features[f] = static_cast<double>(seed * 100 + f);
    }
    r.core.cycles = 1'000'000 + seed;
    r.core.retired = 2'000 + seed;
    r.core.rs_wakeups = 33 * seed;
    r.mem.l1_hits = 7 * seed;
    r.mem.ram_requests = seed;
    return r;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ResultStoreTest, RoundTrip) {
  {
    ResultStore store(path_);
    EXPECT_TRUE(store.loaded().empty());
    for (std::uint64_t i = 1; i <= 3; ++i) store.append(record(i));
    EXPECT_EQ(store.appended(), 3u);
  }
  ResultStore reopened(path_);
  ASSERT_EQ(reopened.loaded().size(), 3u);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    const StoreRecord expected = record(i);
    const StoreRecord& got = reopened.loaded()[i - 1];
    EXPECT_EQ(got.backend_tag, expected.backend_tag);
    EXPECT_EQ(got.app, expected.app);
    EXPECT_EQ(got.features, expected.features);
    EXPECT_EQ(got.core.cycles, expected.core.cycles);
    EXPECT_EQ(got.core.retired, expected.core.retired);
    EXPECT_EQ(got.core.rs_wakeups, expected.core.rs_wakeups);
    EXPECT_EQ(got.mem.l1_hits, expected.mem.l1_hits);
    EXPECT_EQ(got.mem.ram_requests, expected.mem.ram_requests);
  }
}

TEST_F(ResultStoreTest, TornTailIsTruncatedNotFatal) {
  {
    ResultStore store(path_);
    store.append(record(1));
    store.append(record(2));
  }
  // A writer killed mid-append can only tear the tail record.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 5);

  ResultStore recovered(path_);
  ASSERT_EQ(recovered.loaded().size(), 1u);
  EXPECT_EQ(recovered.loaded()[0].core.cycles, record(1).core.cycles);
  // The torn bytes were truncated away; appending works again and the file
  // is back to exactly header + two intact records.
  recovered.append(record(3));
  EXPECT_EQ(std::filesystem::file_size(path_), full);

  ResultStore reopened(path_);
  EXPECT_EQ(reopened.loaded().size(), 2u);
  EXPECT_EQ(reopened.loaded()[1].core.cycles, record(3).core.cycles);
}

TEST_F(ResultStoreTest, CorruptRecordStopsLoadAtLastIntact) {
  {
    ResultStore store(path_);
    store.append(record(1));
    store.append(record(2));
  }
  // Flip one byte inside the *last* record's payload: its checksum fails and
  // the loader keeps everything before it.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const long offset = -static_cast<long>(ResultStore::record_bytes() / 2);
    std::fseek(f, offset, SEEK_END);
    const int byte = std::fgetc(f);
    std::fseek(f, offset, SEEK_END);
    std::fputc(byte ^ 0xff, f);
    std::fclose(f);
  }
  ResultStore recovered(path_);
  EXPECT_EQ(recovered.loaded().size(), 1u);
}

TEST_F(ResultStoreTest, ForeignFileIsReplacedNotTrusted) {
  std::filesystem::create_directories(dir_);
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not an eval store", f);
    std::fclose(f);
  }
  ResultStore store(path_);
  EXPECT_TRUE(store.loaded().empty());
  store.append(record(4));

  ResultStore reopened(path_);
  ASSERT_EQ(reopened.loaded().size(), 1u);
  EXPECT_EQ(reopened.loaded()[0].core.cycles, record(4).core.cycles);
}

TEST_F(ResultStoreTest, FailedWriteIsNotCountedAsPersisted) {
  // A child process caps its own file size (RLIMIT_FSIZE) two and a half
  // records past the header, so the third append tears; with SIGXFSZ
  // ignored the write fails with EFBIG instead of killing the child. Every
  // record the store counted as appended must be one a fresh open reloads.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int persisted = 255;
    try {
      ResultStore store(path_);
      const auto header = std::filesystem::file_size(path_);
      const rlim_t limit = header + 2 * ResultStore::record_bytes() +
                           ResultStore::record_bytes() / 2;
      const rlimit cap{limit, limit};
      std::signal(SIGXFSZ, SIG_IGN);
      if (::setrlimit(RLIMIT_FSIZE, &cap) == 0) {
        for (std::uint64_t i = 1; i <= 50; ++i) store.append(record(i));
        persisted = static_cast<int>(store.appended());
      }
    } catch (...) {
    }
    std::_Exit(persisted);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  const int persisted = WEXITSTATUS(status);
  ASSERT_NE(persisted, 255) << "child could not set up the capped store";
  EXPECT_EQ(persisted, 2);

  ResultStore reopened(path_);
  EXPECT_EQ(reopened.loaded().size(), static_cast<std::size_t>(persisted));
}

TEST_F(ResultStoreTest, TagIsStableAndDiscriminates) {
  EXPECT_EQ(ResultStore::tag("sim"), ResultStore::tag("sim"));
  EXPECT_NE(ResultStore::tag("sim"), ResultStore::tag("proxy"));
}

}  // namespace
}  // namespace adse::eval
