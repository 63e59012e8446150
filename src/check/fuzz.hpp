#pragma once
/// \file fuzz.hpp
/// The fuzz campaign: one sampler, one shrinker and one repro format for
/// every property family the harness falsifies.
///
/// A fuzz *kind* is a design space (a table of named dimensions, each with
/// a baseline value) plus the checks run on a sampled point:
///
///   * `core` — the 30 ParamId features plus the app. Every run must
///     satisfy the structural invariants and the reference model's oracle
///     (check.hpp), and a monotonicity chain through the point (one
///     capacity parameter walked upward) must never get slower beyond the
///     slack below.
///   * `coherence` — cores, directory scheme and size, VL, multicore app and
///     interleaving seed of the tiled MSI machine, simulated with every
///     conservation law of coherence/tiled_memory.hpp armed. An injected
///     protocol defect proves the laws catch real bugs.
///
/// Iterations are seeded independently (seed ⊕ iteration) and run on the
/// service's pool, so a report is identical whatever the thread count.
/// Each violation is ddmin-shrunk toward the table's baseline and written
/// as an `adse-repro v2` text file that `check_tool --repro` replays
/// bit-for-bit (the simulators are deterministic, so a repro either fires
/// or the bug is fixed).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "coherence/tiled_memory.hpp"
#include "config/cpu_config.hpp"
#include "eval/service.hpp"
#include "kernels/workloads.hpp"

namespace adse::check {

// ---- design spaces ---------------------------------------------------------

enum class FuzzKind { kCore, kCoherence };

const std::string& fuzz_kind_name(FuzzKind kind);
/// Inverse of fuzz_kind_name; throws InvariantError on unknown names.
FuzzKind fuzz_kind_from_name(const std::string& name);

/// One axis of a design space.
struct Dimension {
  std::string name;
  double baseline = 0.0;
  /// Symbolic values: when non-empty the dimension's value is an index into
  /// this list, and repro files spell it by label.
  std::vector<std::string> labels;
};

/// A design point: one value per dimension of its kind's table, in table
/// order. Integer-valued dimensions stay below 2^53, so doubles are exact.
using Point = std::vector<double>;

struct DesignSpace {
  FuzzKind kind = FuzzKind::kCore;
  std::vector<Dimension> dims;

  Point baseline() const;
  /// Index of the dimension called `name`; throws on unknown names.
  std::size_t index(const std::string& name) const;
  /// "" when `point` is a valid member of the space, else the reason.
  std::string invalid_reason(const Point& point) const;
  /// Dimensions on which `point` differs from the baseline (table order).
  std::vector<std::size_t> diff(const Point& point) const;
};

/// The two tables. Core: ParamId order, then "app" (baseline ThunderX2 on
/// STREAM). Coherence: cores, scheme, entries, vl, app, interleave_seed
/// (baseline 2 cores, full map, auto entries, VL 128, ring, lockstep start).
const DesignSpace& design_space(FuzzKind kind);

/// Core points <-> the (configuration, app) pair they describe.
Point core_point(const config::CpuConfig& config, kernels::App app);
config::CpuConfig core_config(const Point& point);
kernels::App core_app(const Point& point);

/// The configuration a coherence point describes: the ThunderX2 baseline
/// with the point's VL (load/store pipes widened to one vector) and
/// multicore block applied.
config::CpuConfig coherence_config(const Point& point);

/// Runs one coherence point with `inject` applied and every law armed.
/// Returns the InvariantError message, or "" when every law held. The point
/// must be valid: a configuration error is a usage error, never a finding.
std::string run_coherence_point(const Point& point,
                                coherence::InjectedBug inject);

// ---- monotonicity ------------------------------------------------------------

/// Slack for the monotonicity property, shared by chain detection and repro
/// replay so both call the same thing a violation. Strict monotonicity does
/// not hold with memory in the loop: extra capacity exposes more loads at
/// once, which re-times evictions and writebacks and can mildly thrash the
/// caches (the fuzz soak's worst genuine case is +6.7% cycles; real hardware
/// shows the same excess-MLP effect on streaming codes). So the checked
/// property is "raising a capacity resource may cost at most
/// rel·cycles + abs": loose enough for legitimate re-timing, tight enough
/// that a broken stall condition (2-10x slowdowns) still fails.
inline constexpr double kMonotoneRelSlack = 0.10;
inline constexpr std::uint64_t kMonotoneAbsSlack = 64;

/// cycles_hi exceeding this for a given cycles_lo is a monotonicity
/// violation (more resources made the fixed trace slower beyond the slack).
inline constexpr std::uint64_t monotone_allowed_cycles(std::uint64_t lo) {
  const auto rel =
      static_cast<std::uint64_t>(static_cast<double>(lo) * kMonotoneRelSlack);
  return lo + (rel > kMonotoneAbsSlack ? rel : kMonotoneAbsSlack);
}

/// Parameters whose chains the core fuzzer walks: capacity/width resources
/// where "more must never be slower" holds in this model (see DESIGN.md §10
/// for why e.g. prefetch depth and cache geometry are excluded).
const std::vector<config::ParamId>& monotone_params();

/// Feature accessors: read / functionally update one parameter, round-
/// tripping the canonical feature encoding.
double param_value(const config::CpuConfig& config, config::ParamId id);
config::CpuConfig with_param(const config::CpuConfig& config,
                             config::ParamId id, double value);

/// One monotonicity chain: ascending values of one parameter on a fixed
/// base configuration, with the measured cycles for each point.
struct ChainResult {
  config::ParamId param = config::ParamId::kRobSize;
  std::vector<double> values;          ///< ascending range members
  std::vector<std::uint64_t> cycles;   ///< one entry per value
  std::vector<std::string> errors;     ///< invariant failures ("" = clean)

  /// Index i (>= 1) of the first point slower than its predecessor by more
  /// than the monotonicity slack, or -1.
  int first_regression() const;
};

/// Evaluates `base` with `param` set to each of `values` (ascending, all
/// range members) on `app`. Invariant failures are recorded per point; such
/// points are excluded from the monotonicity comparison.
ChainResult run_chain(eval::EvalService& service,
                      const config::CpuConfig& base, config::ParamId param,
                      std::vector<double> values, kernels::App app);

// ---- violations, shrinking, repro files -------------------------------------

/// One property violation found by the fuzzer (or loaded from a repro).
struct Violation {
  enum class Kind {
    kInvariant,     ///< core: a model invariant / oracle bound failed
    kMonotonicity,  ///< core: adding a resource made a fixed trace slower
    kCoherence,     ///< coherence: a conservation law failed
  };

  Kind kind = Kind::kInvariant;
  std::uint64_t seed = 0;       ///< fuzzer seed that produced it
  std::uint64_t iteration = 0;  ///< fuzzer iteration that produced it
  /// The failing point in design_space(fuzz_kind()) (post-shrink: minimal
  /// diff vs the baseline).
  Point point;
  coherence::InjectedBug inject = coherence::InjectedBug::kNone;
  std::string message;

  // Monotonicity context: raising dimension `chain_dim` from chain_lo to
  // chain_hi on `point` moved cycles from cycles_lo up to cycles_hi. The
  // shrinker never resets chain_dim: it IS the finding.
  int chain_dim = -1;
  double chain_lo = 0.0;
  double chain_hi = 0.0;
  std::uint64_t cycles_lo = 0;
  std::uint64_t cycles_hi = 0;

  /// Where the repro file was written ("" if none was).
  std::string repro_path;

  FuzzKind fuzz_kind() const {
    return kind == Kind::kCoherence ? FuzzKind::kCoherence : FuzzKind::kCore;
  }
};

const std::string& violation_kind_name(Violation::Kind kind);

/// Re-runs a violation (its point must be valid). True = still fires.
/// Invariant violations re-check the run against the oracle; monotonicity
/// violations re-run the (chain_lo, chain_hi) pair and compare cycles;
/// coherence violations re-run the point under its injected defect. The
/// coherence kind does not touch `service`.
bool reproduces(eval::EvalService& service, const Violation& violation);

/// Param-at-a-time ddmin toward the design space's baseline: repeatedly
/// resets each differing dimension to its baseline value, keeping the reset
/// whenever `fires(candidate)` says the violation still reproduces, until a
/// whole pass changes nothing. Invalid candidates are skipped (never
/// probed) and the chain dimension is never reset. Deterministic (table
/// order). Returns the number of dimensions still differing.
std::size_t shrink_violation(
    const std::function<bool(const Violation&)>& fires, Violation& violation);

/// Deterministic "adse-repro v2" text: kind, seed, iteration, inject (for
/// coherence), message, chain context (for monotonicity), then one
/// `set: <dimension> <value>` line per non-baseline dimension.
std::string repro_to_string(const Violation& violation);

/// Inverse of repro_to_string. Throws InvariantError on malformed input or
/// on a point that is not a valid member of its design space.
Violation repro_from_string(const std::string& text);

/// File wrappers. save_repro creates `dir` if needed and names the file
/// repro-<kind>-<seed>-<iteration>.txt, storing the path in the violation.
void save_repro(const std::string& dir, Violation& violation);
Violation load_repro(const std::string& path);

// ---- the campaign ------------------------------------------------------------

struct FuzzOptions {
  FuzzKind kind = FuzzKind::kCore;
  int iterations = 32;
  std::uint64_t seed = 1;
  /// Core: points per monotonicity chain (>= 2 to be able to compare).
  int chain_points = 3;
  /// Coherence: largest tile count sampled (power of two in [2,16]).
  int max_cores = 8;
  /// Coherence: defect planted in every run (kNone for production fuzzing).
  coherence::InjectedBug inject = coherence::InjectedBug::kNone;
  /// Shrink violations toward the baseline before reporting.
  bool shrink = true;
  /// Directory for repro files ("" = do not write any).
  std::string repro_dir;
  bool verbose = false;
};

struct FuzzReport {
  FuzzKind kind = FuzzKind::kCore;
  int iterations = 0;
  std::uint64_t evaluations = 0;  ///< simulator runs requested (pre-memo)
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Runs the campaign on the service's pool with the structural check layer
/// force-enabled. Deterministic for fixed options: violations come back
/// sorted by iteration and shrinking is sequential.
FuzzReport fuzz(eval::EvalService& service, const FuzzOptions& options);

}  // namespace adse::check
