/// \file check_tool.cpp
/// Driver for the adse::check verification harness.
///
///   ./examples/check_tool --fuzz 32 --kind core --seed 1    # exit 1 on bugs
///   ./examples/check_tool --fuzz 512 --repro-dir repros     # CI extended run
///   ./examples/check_tool --fuzz 32 --kind coherence --seed 1
///   ./examples/check_tool --fuzz 32 --kind coherence --inject drop_inval_ack
///   ./examples/check_tool --repro repros/repro-coherence-1-3.txt  # replay
///   ./examples/check_tool --calibrate                       # fit proxy constants
///
/// Exit codes: 0 = clean (or a replayed repro no longer fires), 1 = at least
/// one violation (or a replayed repro still fires), 2 = usage error (an
/// unknown flag or an invalid option value) or an unreadable/invalid repro
/// file, 77 = skipped because the gating
/// environment variable (--skip-unless-env) is unset — the ctest
/// SKIP_RETURN_CODE convention.
///
/// `--fuzz N --kind K` runs N iterations of the fuzz campaign (check/fuzz.hpp)
/// on one design space: `core` (default) probes random single-core design
/// points against the oracle, the structural invariants and monotonicity
/// chains; `coherence` simulates random (cores, directory scheme/size, VL,
/// app, interleaving) points on the tiled MSI machine with every
/// conservation law armed. `--inject BUG` plants a protocol defect
/// (drop_inval_ack, leak_sharer_bit, skip_downgrade) in every coherence run
/// so the harness can prove it catches real bugs; `--max-cores C` bounds the
/// sampled tile count (default from ADSE_CORES). Findings are ddmin-shrunk
/// and, with `--repro-dir`, written as `adse-repro v2` files that `--repro`
/// replays whatever their kind.
///
/// `--calibrate` runs the DiffTune-style constant fit (analysis/calibrate):
/// coordinate descent of the hardware proxy's latency/bandwidth constants
/// against black-box cycle observations, reporting fitted vs reference
/// values and the residual divergence. `--configs N`, `--sweeps N`, `--seed`
/// shape the fit; `--out FILE` also writes the report to a file.
///
/// The tool uses a hermetic evaluation service (no persistent result store):
/// a cached result would bypass the in-run structural checks and could mask
/// the very bugs the fuzzer exists to find.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "analysis/calibrate.hpp"
#include "check/fuzz.hpp"
#include "common/env.hpp"
#include "common/require.hpp"
#include "common/stopwatch.hpp"
#include "config/serialize.hpp"
#include "eval/service.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--fuzz N] [--kind core|coherence] [--seed S] [--threads T]\n"
      "          [--chains L] [--inject BUG] [--max-cores C]\n"
      "          [--repro-dir DIR] [--no-shrink] [--verbose]\n"
      "          [--repro FILE] [--skip-unless-env VAR]\n"
      "          [--calibrate] [--configs N] [--sweeps N] [--out FILE]\n",
      argv0);
  return 2;
}

void print_violation(const adse::check::Violation& v) {
  std::printf("  [%s] iteration %llu: %s\n",
              adse::check::violation_kind_name(v.kind).c_str(),
              static_cast<unsigned long long>(v.iteration), v.message.c_str());
  const auto& space = adse::check::design_space(v.fuzz_kind());
  for (std::size_t d : space.diff(v.point)) {
    const auto& dim = space.dims[d];
    if (dim.labels.empty()) {
      std::printf("        %s = %.17g\n", dim.name.c_str(), v.point[d]);
    } else {
      std::printf("        %s = %s\n", dim.name.c_str(),
                  dim.labels[static_cast<std::size_t>(v.point[d])].c_str());
    }
  }
  if (!v.repro_path.empty()) {
    std::printf("        repro: %s\n", v.repro_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adse;

  check::FuzzOptions options;
  std::string repro_file;
  int threads = 0;
  bool calibrate = false;
  analysis::CalibrationOptions calibration;
  std::string calibration_out;

  try {
    options.max_cores = static_cast<int>(mc_cores());
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) throw InvariantError(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--fuzz") {
        options.iterations = std::atoi(next());
      } else if (arg == "--kind") {
        options.kind = check::fuzz_kind_from_name(next());
      } else if (arg == "--seed") {
        options.seed = std::strtoull(next(), nullptr, 10);
      } else if (arg == "--chains") {
        options.chain_points = std::atoi(next());
      } else if (arg == "--inject") {
        options.inject = coherence::injected_bug_from_name(next());
      } else if (arg == "--max-cores") {
        options.max_cores = std::atoi(next());
      } else if (arg == "--threads") {
        threads = std::atoi(next());
      } else if (arg == "--repro-dir") {
        options.repro_dir = next();
      } else if (arg == "--no-shrink") {
        options.shrink = false;
      } else if (arg == "--verbose") {
        options.verbose = true;
      } else if (arg == "--repro") {
        repro_file = next();
      } else if (arg == "--calibrate") {
        calibrate = true;
      } else if (arg == "--configs") {
        calibration.num_configs = std::atoi(next());
      } else if (arg == "--sweeps") {
        calibration.sweeps = std::atoi(next());
      } else if (arg == "--out") {
        calibration_out = next();
      } else if (arg == "--skip-unless-env") {
        const char* gate = std::getenv(next());
        if (gate == nullptr || gate[0] == '\0') {
          std::printf("skipped (gating environment variable unset)\n");
          return 77;
        }
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const InvariantError& e) {
    std::fprintf(stderr, "check_tool: %s\n", e.what());
    return usage(argv[0]);
  }

  if (calibrate) {
    calibration.seed = options.seed;
    Stopwatch watch;
    const analysis::CalibrationReport report = analysis::calibrate(calibration);
    const double seconds = watch.millis() / 1000.0;
    std::printf("== proxy-constant calibration (%d configs, %d sweeps, "
                "seed %llu) ==\n\n%s",
                calibration.num_configs, calibration.sweeps,
                static_cast<unsigned long long>(calibration.seed),
                report.render().c_str());
    std::printf("fit took %.1f s\n", seconds);
    if (!calibration_out.empty()) {
      std::ofstream out(calibration_out);
      out << report.render();
      std::printf("wrote %s\n", calibration_out.c_str());
    }
    return 0;
  }

  // Hermetic service: in-memory memo only (see file comment).
  eval::EvalOptions eval_options;
  eval_options.threads = threads;
  eval::EvalService service(eval_options);

  if (!repro_file.empty()) {
    check::Violation violation;
    try {
      violation = check::load_repro(repro_file);
    } catch (const InvariantError& e) {
      std::fprintf(stderr, "check_tool: %s: %s\n", repro_file.c_str(),
                   e.what());
      return 2;
    }
    std::printf("replaying %s (%s, seed %llu, iteration %llu)\n",
                repro_file.c_str(),
                check::violation_kind_name(violation.kind).c_str(),
                static_cast<unsigned long long>(violation.seed),
                static_cast<unsigned long long>(violation.iteration));
    print_violation(violation);
    if (options.verbose && violation.fuzz_kind() == check::FuzzKind::kCore) {
      std::printf("%s\n",
                  config::to_yaml(check::core_config(violation.point)).c_str());
    }
    const bool fires = check::reproduces(service, violation);
    std::printf("%s: %s\n", repro_file.c_str(),
                fires ? "STILL REPRODUCES" : "does not reproduce (fixed)");
    return fires ? 1 : 0;
  }

  check::FuzzReport report;
  Stopwatch watch;
  try {
    report = check::fuzz(service, options);
  } catch (const InvariantError& e) {
    // Option validation (iterations, chains, max cores, inject vs kind).
    std::fprintf(stderr, "check_tool: %s\n", e.what());
    return 2;
  }
  const double seconds = watch.millis() / 1000.0;
  std::printf("check_tool: %s in %.1f s on %zu threads (seed %llu",
              report.summary().c_str(), seconds, service.threads(),
              static_cast<unsigned long long>(options.seed));
  if (options.kind == check::FuzzKind::kCoherence) {
    std::printf(", max %d cores, inject %s", options.max_cores,
                coherence::injected_bug_name(options.inject).c_str());
  }
  std::printf(")\n");
  for (const check::Violation& v : report.violations) print_violation(v);
  return report.ok() ? 0 : 1;
}
