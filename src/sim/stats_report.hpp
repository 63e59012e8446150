#pragma once
/// \file stats_report.hpp
/// SimEng-style end-of-run statistics rendering: "SimEng ... return[s]
/// statistics such as cycles executed, number of instructions, and more upon
/// completion of the simulation" (artifact appendix). Used by the examples
/// and handy when debugging a configuration by hand.

#include <string>

#include "sim/simulation.hpp"

namespace adse::sim {

/// Renders the full statistics block for one run: cycles, retired µops, IPC,
/// per-group retirement mix, SVE fraction, frontend stall attribution, LSQ
/// behaviour and memory-hierarchy counters.
std::string render_stats(const RunResult& result);

/// One-line summary ("stream on thunderx2: 80,718 cycles, IPC 1.10, ...").
std::string summarize(const RunResult& result);

// The eval-service renderers live on the service itself —
// `EvalService::cache_table()` / `summary_line()` — and read the obs
// registry counters directly.

}  // namespace adse::sim
