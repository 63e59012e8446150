/// \file test_check.cpp
/// The verification harness verified: oracle bounds on hand-built traces
/// with hand-computed expectations, the invariant layer catching tampered
/// results, the core design space, the ddmin shrinker on synthetic failure
/// predicates, and the adse-repro v2 file round-trip.

#include "check/check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "check/fuzz.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "config/baselines.hpp"
#include "eval/service.hpp"
#include "kernels/kernel_builder.hpp"
#include "sim/simulation.hpp"

namespace adse::check {
namespace {

using config::CpuConfig;
using config::ParamId;
using kernels::gp;

isa::Program straight_line(int n, isa::InstrGroup group) {
  kernels::KernelBuilder b("hand");
  for (int i = 0; i < n; ++i) b.op(group, gp(1), gp(2));
  return b.take();
}

// ---- oracle: retirement facts ---------------------------------------------

TEST(Oracle, CountsMatchTraceStats) {
  const CpuConfig cfg = config::thunderx2_baseline();
  for (kernels::App app : kernels::all_apps()) {
    const isa::Program trace =
        kernels::build_app(app, cfg.core.vector_length_bits);
    const isa::TraceStats stats = isa::compute_stats(trace);
    const Oracle oracle = reference_replay(trace, cfg);
    EXPECT_EQ(oracle.total_ops, stats.total);
    EXPECT_EQ(oracle.sve_ops, stats.sve_ops);
    for (int g = 0; g < isa::kNumInstrGroups; ++g) {
      EXPECT_EQ(oracle.by_group[g], stats.by_group[g]);
    }
  }
}

TEST(Oracle, EmptyProgramThrows) {
  const isa::Program empty;
  EXPECT_THROW(reference_replay(empty, config::thunderx2_baseline()),
               InvariantError);
}

// ---- oracle: hand-computed cycle bounds -----------------------------------

TEST(Oracle, SixIntOpsOnBaseline) {
  // 6 kInt ops on the ThunderX2 baseline. Lower bound: the width limits give
  // ceil(6/4) = 2, the three mixed ports give ceil(6/3) = 2, fetch needs
  // ceil(24/32) = 1 block — so 2. Upper bound: serial replay charges each op
  // the pipeline overhead plus its 1-cycle latency, then the slack.
  const Oracle oracle =
      reference_replay(straight_line(6, isa::InstrGroup::kInt),
                       config::thunderx2_baseline());
  EXPECT_EQ(oracle.total_ops, 6u);
  EXPECT_EQ(oracle.fetch_bytes, 6u * isa::kInstrBytes);
  EXPECT_EQ(oracle.min_cycles, 2u);
  EXPECT_EQ(oracle.max_cycles,
            6u * (kSerialPerOpOverhead + 1) + kSerialSlackCycles);
}

TEST(Oracle, CommitWidthOneForcesOneRetirePerCycle) {
  CpuConfig cfg = config::thunderx2_baseline();
  cfg.core.commit_width = 1;
  const Oracle oracle =
      reference_replay(straight_line(6, isa::InstrGroup::kInt), cfg);
  EXPECT_EQ(oracle.min_cycles, 6u);
}

TEST(Oracle, FpDivLatencyPricedIntoUpperBound) {
  // kFpDiv has a 16-cycle execution latency.
  const Oracle oracle =
      reference_replay(straight_line(2, isa::InstrGroup::kFpDiv),
                       config::thunderx2_baseline());
  EXPECT_EQ(oracle.max_cycles,
            2u * (kSerialPerOpOverhead + 16) + kSerialSlackCycles);
}

TEST(Oracle, StoreSendRateBoundsBelow) {
  // Baseline sends at most one store per cycle, so 5 stores need 5 cycles
  // whatever the widths.
  kernels::KernelBuilder b("stores");
  for (int i = 0; i < 5; ++i) {
    b.store(0x1000 + 8 * static_cast<std::uint64_t>(i), 8, gp(1), gp(2));
  }
  const Oracle oracle =
      reference_replay(b.take(), config::thunderx2_baseline());
  EXPECT_EQ(oracle.min_cycles, 5u);
}

TEST(Oracle, LoopBufferStreamingExemptsFetchBytes) {
  // 3 iterations of a 3-op body: only the first (training) iteration pulls
  // encoding bytes through fetch blocks — unless the body does not fit the
  // loop buffer, in which case every op pays.
  kernels::KernelBuilder b("loop");
  b.begin_loop();
  for (int iter = 0; iter < 3; ++iter) {
    b.begin_iteration();
    b.op(isa::InstrGroup::kInt, gp(1));
    b.op(isa::InstrGroup::kInt, gp(2));
    b.branch();
    b.end_iteration();
  }
  b.end_loop();
  const isa::Program trace = b.take();

  CpuConfig fits = config::thunderx2_baseline();  // loop buffer holds 32
  EXPECT_EQ(reference_replay(trace, fits).fetch_bytes,
            3u * isa::kInstrBytes);

  CpuConfig spills = fits;
  spills.core.loop_buffer_size = 2;  // 3-op body cannot stream
  EXPECT_EQ(reference_replay(trace, spills).fetch_bytes,
            9u * isa::kInstrBytes);
}

TEST(Oracle, LineStraddlingLoadCostsTwoLines) {
  // Same single load, aligned vs straddling a 64 B line boundary: the
  // serial upper bound prices exactly one extra line.
  kernels::KernelBuilder aligned("aligned");
  aligned.load(gp(1), 0x1000, 8, gp(2));
  kernels::KernelBuilder straddle("straddle");
  straddle.load(gp(1), 0x103c, 8, gp(2));  // crosses 0x1040
  const CpuConfig cfg = config::thunderx2_baseline();
  const Oracle one = reference_replay(aligned.take(), cfg);
  const Oracle two = reference_replay(straddle.take(), cfg);
  EXPECT_GT(two.max_cycles, one.max_cycles);
  const std::uint64_t line_cost = two.max_cycles - one.max_cycles;
  // ...and that extra line is the full miss path: at least the raw
  // L1+L2+RAM latencies of the baseline (4 + 11 + ~238 core cycles).
  EXPECT_GT(line_cost, 200u);
}

// ---- oracle vs the real simulator -----------------------------------------

TEST(Oracle, BoundsBracketRealRunsOnAnchorConfigs) {
  for (const CpuConfig& cfg :
       {config::thunderx2_baseline(), config::minimal_viable(),
        config::big_future(), config::a64fx_like()}) {
    for (kernels::App app : kernels::all_apps()) {
      const isa::Program trace =
          kernels::build_app(app, cfg.core.vector_length_bits);
      const sim::RunResult result = sim::simulate(cfg, trace);
      const Oracle oracle = reference_replay(trace, cfg);
      EXPECT_GE(result.core.cycles, oracle.min_cycles)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_LE(result.core.cycles, oracle.max_cycles)
          << cfg.name << "/" << kernels::app_slug(app);
      EXPECT_TRUE(verify_run(cfg, trace, result).empty());
    }
  }
}

TEST(VerifyRun, FlagsTamperedResults) {
  const CpuConfig cfg = config::thunderx2_baseline();
  const isa::Program trace =
      kernels::build_app(kernels::App::kStream, cfg.core.vector_length_bits);
  sim::RunResult result = sim::simulate(cfg, trace);

  sim::RunResult wrong_retired = result;
  wrong_retired.core.retired += 1;
  EXPECT_FALSE(verify_run(cfg, trace, wrong_retired).empty());

  sim::RunResult too_fast = result;
  too_fast.core.cycles = 1;
  EXPECT_FALSE(verify_run(cfg, trace, too_fast).empty());

  sim::RunResult too_slow = result;
  too_slow.core.cycles = result.core.cycles * 1000;
  EXPECT_FALSE(verify_run(cfg, trace, too_slow).empty());

  sim::RunResult lost_load = result;
  lost_load.mem.loads -= 1;
  EXPECT_FALSE(verify_run(cfg, trace, lost_load).empty());

  EXPECT_NO_THROW(require_clean_run(cfg, trace, result));
  EXPECT_THROW(require_clean_run(cfg, trace, too_fast), InvariantError);
}

// ---- the invariant layer switch -------------------------------------------

TEST(CheckSwitch, ScopedCheckRestoresState) {
  const bool before = CheckContext::enabled();
  {
    ScopedCheck on(true);
    EXPECT_TRUE(CheckContext::enabled());
    {
      ScopedCheck off(false);
      EXPECT_FALSE(CheckContext::enabled());
    }
    EXPECT_TRUE(CheckContext::enabled());
  }
  EXPECT_EQ(CheckContext::enabled(), before);
}

TEST(CheckSwitch, SimulationCleanWithChecksOn) {
  ScopedCheck on(true);
  for (kernels::App app : kernels::all_apps()) {
    EXPECT_NO_THROW(sim::simulate_app(config::thunderx2_baseline(), app));
  }
}

// ---- parameter editing and design spaces -----------------------------------

TEST(ParamEdit, WithParamRoundTrips) {
  const CpuConfig base = config::thunderx2_baseline();
  const CpuConfig edited = with_param(base, ParamId::kRobSize, 256.0);
  EXPECT_EQ(edited.core.rob_size, 256);
  EXPECT_EQ(param_value(edited, ParamId::kRobSize), 256.0);
  const DesignSpace& space = design_space(FuzzKind::kCore);
  const auto diff = space.diff(core_point(edited, kernels::App::kStream));
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], static_cast<std::size_t>(ParamId::kRobSize));
  EXPECT_TRUE(space.diff(core_point(base, kernels::App::kStream)).empty());
  // A point round-trips through its (configuration, app) pair.
  const Point point = core_point(edited, kernels::App::kTeaLeaf);
  EXPECT_EQ(core_app(point), kernels::App::kTeaLeaf);
  EXPECT_EQ(config::feature_vector(core_config(point)),
            config::feature_vector(edited));
}

TEST(DesignSpaces, BaselinesAreValidAndTablesNamed) {
  for (FuzzKind kind : {FuzzKind::kCore, FuzzKind::kCoherence}) {
    const DesignSpace& space = design_space(kind);
    EXPECT_EQ(space.invalid_reason(space.baseline()), "");
    EXPECT_EQ(fuzz_kind_from_name(fuzz_kind_name(kind)), kind);
  }
  EXPECT_EQ(design_space(FuzzKind::kCore).dims.size(), config::kNumParams + 1);
  EXPECT_EQ(design_space(FuzzKind::kCore).index("rob_size"),
            static_cast<std::size_t>(ParamId::kRobSize));
  EXPECT_THROW(design_space(FuzzKind::kCoherence).index("rob_size"),
               InvariantError);
  EXPECT_THROW(fuzz_kind_from_name("multicore"), InvariantError);

  Point bad = design_space(FuzzKind::kCore).baseline();
  bad[static_cast<std::size_t>(ParamId::kRobSize)] = 100.5;  // truncates
  EXPECT_NE(design_space(FuzzKind::kCore).invalid_reason(bad), "");
  bad = design_space(FuzzKind::kCore).baseline();
  bad.back() = kernels::kNumApps;  // past the last app
  EXPECT_NE(design_space(FuzzKind::kCore).invalid_reason(bad), "");
}

// ---- the shrinker ----------------------------------------------------------

Violation core_violation(const CpuConfig& config) {
  Violation violation;
  violation.point = core_point(config, kernels::App::kStream);
  return violation;
}

TEST(Shrink, DdminFindsTheTwoCulpritParameters) {
  // Synthetic failure: fires iff ROB >= 300 AND L1 is at least 64 KiB —
  // whatever else is set. Starting from a config that differs from the
  // baseline in many parameters, ddmin must strip every irrelevant one.
  const CpuConfig baseline = config::thunderx2_baseline();
  CpuConfig noisy = baseline;
  noisy.core.rob_size = 400;
  noisy.mem.l1_size_kib = 128;
  noisy.core.gp_phys_regs = 256;
  noisy.core.fp_phys_regs = 64;
  noisy.core.commit_width = 9;
  noisy.mem.prefetch_distance = 9;
  noisy.core.load_queue_size = 200;

  Violation violation = core_violation(noisy);
  int probes = 0;
  const auto fires = [&probes](const Violation& v) {
    ++probes;
    const CpuConfig c = core_config(v.point);
    return c.core.rob_size >= 300 && c.mem.l1_size_kib >= 64;
  };
  const std::size_t left = shrink_violation(fires, violation);
  EXPECT_EQ(left, 2u);
  const CpuConfig shrunk = core_config(violation.point);
  EXPECT_EQ(shrunk.core.rob_size, 400);
  EXPECT_EQ(shrunk.mem.l1_size_kib, 128);
  EXPECT_EQ(shrunk.core.commit_width, baseline.core.commit_width);
  EXPECT_GT(probes, 0);
}

TEST(Shrink, ChainParameterIsNeverReset) {
  const CpuConfig baseline = config::thunderx2_baseline();
  Violation violation =
      core_violation(with_param(baseline, ParamId::kRobSize, 64.0));
  violation.kind = Violation::Kind::kMonotonicity;
  violation.chain_dim = static_cast<int>(ParamId::kRobSize);
  violation.chain_lo = 64;
  violation.chain_hi = 128;
  const auto always = [](const Violation&) { return true; };
  EXPECT_EQ(shrink_violation(always, violation), 1u);
  EXPECT_EQ(core_config(violation.point).core.rob_size, 64);
}

TEST(Shrink, InvalidCandidatesAreSkippedNotProbed) {
  // L1 latency 2, L2 latency 4 is valid; resetting L1 latency alone to the
  // baseline's 4 would leave L2 no slower than L1 — that candidate must
  // never reach the predicate. Resetting L2 unlocks it on the next pass.
  CpuConfig start = config::thunderx2_baseline();
  start.mem.l1_latency_cycles = 2;
  start.mem.l2_latency_cycles = 4;
  Violation violation = core_violation(start);
  const DesignSpace& space = design_space(FuzzKind::kCore);
  ASSERT_EQ(space.invalid_reason(violation.point), "");
  int probes = 0;
  const auto fires = [&](const Violation& probe) {
    ++probes;
    EXPECT_EQ(space.invalid_reason(probe.point), "");
    return true;
  };
  EXPECT_EQ(shrink_violation(fires, violation), 0u);
  EXPECT_EQ(probes, 2);
}

// ---- repro files -----------------------------------------------------------

TEST(Repro, RoundTripsMonotonicityViolation) {
  Violation v = core_violation(
      with_param(with_param(config::thunderx2_baseline(), ParamId::kRamClock,
                            0.88592601106074531),
                 ParamId::kRobSize, 296));
  v.point.back() = static_cast<double>(kernels::App::kTeaLeaf);
  v.kind = Violation::Kind::kMonotonicity;
  v.seed = 7;
  v.iteration = 42;
  v.message = "raising rob_size made tealeaf slower";
  v.chain_dim = static_cast<int>(ParamId::kRobSize);
  v.chain_lo = 296;
  v.chain_hi = 472;
  v.cycles_lo = 117210;
  v.cycles_hi = 126517;

  const std::string text = repro_to_string(v);
  EXPECT_EQ(text.rfind("adse-repro v2\nkind: monotonicity\n", 0), 0u) << text;
  EXPECT_NE(text.find("set: app tealeaf\n"), std::string::npos) << text;
  const Violation back = repro_from_string(text);
  EXPECT_EQ(back.kind, v.kind);
  EXPECT_EQ(core_app(back.point), kernels::App::kTeaLeaf);
  EXPECT_EQ(back.seed, v.seed);
  EXPECT_EQ(back.iteration, v.iteration);
  EXPECT_EQ(back.message, v.message);
  EXPECT_EQ(back.chain_dim, v.chain_dim);
  EXPECT_EQ(back.chain_lo, v.chain_lo);
  EXPECT_EQ(back.chain_hi, v.chain_hi);
  EXPECT_EQ(back.cycles_lo, v.cycles_lo);
  EXPECT_EQ(back.cycles_hi, v.cycles_hi);
  // The %.17g encoding preserves the continuous parameter exactly.
  EXPECT_EQ(back.point, v.point);
  // Serialisation is deterministic.
  EXPECT_EQ(repro_to_string(back), text);
}

TEST(Repro, SaveAndLoadThroughAFile) {
  Violation v = core_violation(
      with_param(config::thunderx2_baseline(), ParamId::kRobSize, 64.0));
  v.point.back() = static_cast<double>(kernels::App::kMiniBude);
  v.seed = 3;
  v.iteration = 9;
  v.message = "multi-line\nmessage gets flattened";
  const std::string dir = ::testing::TempDir() + "adse_check_repro";
  save_repro(dir, v);
  EXPECT_EQ(v.repro_path, dir + "/repro-invariant-3-9.txt");
  const Violation back = load_repro(v.repro_path);
  EXPECT_EQ(core_config(back.point).core.rob_size, 64);
  EXPECT_EQ(core_app(back.point), kernels::App::kMiniBude);
  EXPECT_EQ(back.message, "multi-line;message gets flattened");
  EXPECT_EQ(back.repro_path, v.repro_path);
  std::remove(v.repro_path.c_str());
}

TEST(Repro, MalformedInputsThrow) {
  const std::string head = "adse-repro v2\n";
  for (const std::string& text : {
           std::string("not a repro"),
           std::string("adse-repro v1\nkind: invariant\nend\n"),
           head + "set: rob_size 64\nend\n",              // no kind
           head + "kind: invariant\nbogus: x\nend\n",     // unknown key
           head + "kind: monotonicity\nend\n",            // no chain line
           head + "kind: invariant\nset: rob_size not-a-number\nend\n",
           head + "kind: invariant\nset: rob_size\nend\n",
           head + "kind: invariant\nset: app ring\nend\n",  // coherence app
           head + "kind: invariant\nset: cores 4\nend\n",   // other table
           head + "kind: invariant\nset: rob_size 3\nend\n",  // out of range
           head + "kind: invariant\ninject: drop_inval_ack\nend\n",
           head + "kind: monotonicity\nchain: rob_size 64 9999\nend\n",
           head + "kind: coherence\nseed: -1\nend\n",
       }) {
    EXPECT_THROW(repro_from_string(text), InvariantError) << text;
  }
  EXPECT_THROW(load_repro(::testing::TempDir() + "no-such-repro.txt"),
               InvariantError);
}

// ---- monotonicity machinery ------------------------------------------------

TEST(Monotone, SlackScalesWithCycles) {
  EXPECT_EQ(monotone_allowed_cycles(0), kMonotoneAbsSlack);
  EXPECT_EQ(monotone_allowed_cycles(100), 100 + kMonotoneAbsSlack);
  EXPECT_EQ(monotone_allowed_cycles(100000),
            100000 + static_cast<std::uint64_t>(100000 * kMonotoneRelSlack));
}

TEST(Monotone, ParamSetIsCapacityOnly) {
  const auto& params = monotone_params();
  EXPECT_NE(std::find(params.begin(), params.end(), ParamId::kRobSize),
            params.end());
  // Excluded: legitimately non-monotone knobs.
  EXPECT_EQ(std::find(params.begin(), params.end(),
                      ParamId::kPrefetchDistance),
            params.end());
  EXPECT_EQ(std::find(params.begin(), params.end(),
                      ParamId::kLsqCompletionWidth),
            params.end());
}

TEST(Monotone, FirstRegressionRespectsSlackAndErrors) {
  ChainResult chain;
  chain.values = {8, 16, 32, 64};
  chain.cycles = {1000, 995, 2000, 990};
  chain.errors = {"", "", "bad", ""};  // the 2000 outlier never competes
  EXPECT_EQ(chain.first_regression(), -1);
  chain.errors[2] = "";
  EXPECT_EQ(chain.first_regression(), 2);
}

// ---- fuzzer end-to-end ------------------------------------------------------

TEST(Fuzz, SmallRunIsCleanAndDeterministic) {
  eval::EvalService service;  // hermetic: no persistent store
  FuzzOptions options;
  options.iterations = 4;
  options.seed = 1;
  const FuzzReport first = fuzz(service, options);
  EXPECT_TRUE(first.ok()) << first.summary();
  EXPECT_EQ(first.iterations, 4);
  EXPECT_EQ(first.evaluations,
            4u * (1u + static_cast<unsigned>(options.chain_points)));
  const FuzzReport second = fuzz(service, options);
  EXPECT_EQ(second.violations.size(), first.violations.size());
  EXPECT_EQ(second.evaluations, first.evaluations);
}

TEST(Fuzz, ChainOnBaselineIsMonotone) {
  eval::EvalService service;
  const CpuConfig base = config::thunderx2_baseline();
  const ChainResult chain =
      run_chain(service, base, ParamId::kRobSize, {16, 64, 180, 512},
                kernels::App::kStream);
  ASSERT_EQ(chain.cycles.size(), 4u);
  for (const std::string& error : chain.errors) EXPECT_EQ(error, "");
  EXPECT_EQ(chain.first_regression(), -1);
  // A 16-entry ROB really is slower than a 512-entry one on STREAM.
  EXPECT_GT(chain.cycles.front(), chain.cycles.back());
}

TEST(Fuzz, RejectsDegenerateOptions) {
  eval::EvalService service;
  FuzzOptions options;
  options.iterations = 0;
  EXPECT_THROW(fuzz(service, options), InvariantError);
  options.iterations = 1;
  options.chain_points = 1;
  EXPECT_THROW(fuzz(service, options), InvariantError);
  options.chain_points = 3;
  options.inject = coherence::InjectedBug::kDropInvalAck;  // core kind
  EXPECT_THROW(fuzz(service, options), InvariantError);
  options.kind = FuzzKind::kCoherence;
  options.max_cores = 6;
  EXPECT_THROW(fuzz(service, options), InvariantError);
}

TEST(Fuzz, ReplayRejectsInvalidPoints) {
  // An invalid point is a usage error, never a finding: replay throws
  // instead of answering "still reproduces".
  eval::EvalService service;
  Violation v = core_violation(config::thunderx2_baseline());
  v.point[static_cast<std::size_t>(ParamId::kRobSize)] = 3;
  EXPECT_THROW(reproduces(service, v), InvariantError);
}

}  // namespace
}  // namespace adse::check
