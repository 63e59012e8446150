#pragma once
/// \file batch_sim.hpp
/// The simulation path every entry point shares: configurations run as the
/// lanes of one core::BatchedCore pass over a trace. sim::simulate and
/// sim::simulate_hardware are one-lane runs; simulate_batch runs K configs
/// per trace pass. All lanes of a pass share one decoded µop stream (so they
/// must share a vector length — traces depend only on (app, VL)), and every
/// lane's RunResult is validated and priced by adse::power, so campaign
/// CSVs, the eval result store, and the adse::check conservation laws see
/// no difference between a config run alone and one run in a batch.

#include <span>
#include <vector>

#include "config/cpu_config.hpp"
#include "core/batched_core.hpp"
#include "isa/program.hpp"
#include "sim/simulation.hpp"

namespace adse::sim {

/// Runs every config as one lane of a single engine pass over `program`
/// (against `decoded` when non-null, else decoding `program`), each lane
/// with its own memory hierarchy built with `mem_fidelity`. Validates and
/// prices every lane, applies the cross-component conservation laws when
/// CheckContext is enabled, and exports the per-run `sim.*` obs counters.
/// `info`, when non-null, receives the scheduler's lane-occupancy
/// accounting.
std::vector<RunResult> simulate_lanes(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    const core::DecodedTrace* decoded, const mem::FidelityOptions& mem_fidelity,
    const core::CoreFidelity& core_fidelity, core::BatchRunInfo* info);

/// Simulates every config against `program` in one batched pass at campaign
/// fidelity. Results come back in config order and are bit-identical to
/// per-config sim::simulate calls. Throws InvariantError when the batch
/// mixes vector lengths (group by (app, VL) first — eval::EvalService does).
/// `info`, when non-null, receives the scheduler's lane-occupancy
/// accounting.
std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    core::BatchRunInfo* info = nullptr);

/// Same, with the trace pre-decoded once per (app, VL) group: callers
/// chunking a large group into many K-lane batches (the eval service, the
/// throughput bench) pay the µop decode once, not once per chunk. `program`
/// must be the program `decoded` was built from.
std::vector<RunResult> simulate_batch(
    std::span<const config::CpuConfig> configs, const isa::Program& program,
    const core::DecodedTrace& decoded, core::BatchRunInfo* info = nullptr);

}  // namespace adse::sim
