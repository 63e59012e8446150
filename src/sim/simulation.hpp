#pragma once
/// \file simulation.hpp
/// One-call façade over core + memory + workloads: the equivalent of "run
/// SimEng with this YAML config and this binary, collect the statistics".

#include <string>

#include "config/cpu_config.hpp"
#include "core/core_stats.hpp"
#include "isa/program.hpp"
#include "kernels/workloads.hpp"
#include "mem/hierarchy.hpp"
#include "power/power_model.hpp"

namespace adse::core {
class DecodedTrace;
}  // namespace adse::core

namespace adse::sim {

/// Everything a single simulation returns.
struct RunResult {
  std::string app;
  std::string config_name;
  core::CoreStats core;
  mem::MemStats mem;
  /// Analytical power/area for this run (adse::power). NaN for results
  /// loaded from a pre-power (v1) eval store.
  power::PowerResult power;

  std::uint64_t cycles() const { return core.cycles; }
  double energy_j() const { return power.energy_j(); }
};

/// Runs `program` on `config` with the campaign-fidelity simulator
/// (infinite banks / unlimited MSHRs / perfect branches — the SST defaults
/// the paper describes): one lane of sim::simulate_lanes, the engine path
/// every simulation shares.
RunResult simulate(const config::CpuConfig& config, const isa::Program& program);

/// Same, against `program`'s pre-decoded trace (decode paid once per trace,
/// not per call); bit-identical to the form above.
RunResult simulate(const config::CpuConfig& config, const isa::Program& program,
                   const core::DecodedTrace& decoded);

/// Convenience: builds the app's default trace for the config's vector
/// length, then simulates it.
RunResult simulate_app(const config::CpuConfig& config, kernels::App app);

/// Basic sanity checks on a result (every µop retired, cycles positive).
/// Mirrors the paper's "only runs that pass validation are considered".
void validate_result(const RunResult& result, const isa::Program& program);

}  // namespace adse::sim
