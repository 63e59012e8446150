#pragma once
/// \file param_space.hpp
/// The design space of Tables II & III: per-parameter ranges/steps plus a
/// constraint-aware uniform sampler. Sampling semantics follow §V-A: every
/// parameter is drawn independently and uniformly over its discrete (or
/// continuous) range, except the dependent lower bounds on load/store
/// bandwidth (>= one full vector) and L2 size/latency (> L1).

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "config/cpu_config.hpp"

namespace adse::config {

/// How a parameter's range is stepped.
enum class StepKind {
  kPow2,    ///< powers of two in [min, max]
  kLinear,  ///< min, min+step, ..., max (plus an optional extra floor value)
  kReal,    ///< continuous uniform in [min, max]
};

/// Metadata describing one searchable parameter.
struct ParamSpec {
  ParamId id;
  std::string name;    ///< same string as param_name(id)
  double min = 0;
  double max = 0;
  double step = 1;             ///< for kLinear
  StepKind kind = StepKind::kLinear;
  /// Optional extra value below the stepped range (e.g. GP/FP registers use
  /// "38, then steps of 8 starting from 40" per Table II).
  std::optional<double> extra_floor;

  /// All discrete values of the range, ascending (throws for kReal).
  const std::vector<double>& values() const;

  /// Uniform draw from the range, honouring an optional raised lower bound
  /// (used for dependent constraints). The raised bound is clamped into the
  /// range; the draw is uniform over the remaining values.
  double sample(Rng& rng, std::optional<double> raised_min = std::nullopt) const;

  /// One local move from `current`: a uniformly chosen adjacent value of the
  /// discrete range (one step/power up or down), or a small uniform jitter
  /// (±10% of the span, clamped) for continuous parameters. Honours an
  /// optional raised lower bound the same way sample() does; if no neighbour
  /// satisfies it the smallest admissible value is returned. The result is
  /// always a member of the range.
  double neighbor(double current, Rng& rng,
                  std::optional<double> raised_min = std::nullopt) const;

  /// Smallest range value >= `lo` (used to repair dependent constraints
  /// after mutation). Throws if `lo` exceeds the range maximum.
  double raise_to(double lo) const;

  /// True if `v` is a member of this parameter's range.
  bool contains(double v) const;

  /// The discrete values, enumerated once by ParameterSpace (empty for
  /// kReal); every method above reads this table.
  std::vector<double> table;
};

/// Extra conditions applied when sampling a configuration.
struct SampleConstraints {
  /// Pin the vector length (used for the Fig. 4/5 constrained campaigns).
  std::optional<int> fixed_vector_length;
};

/// The full 30-dimensional search space.
class ParameterSpace {
 public:
  ParameterSpace();

  /// Spec for one parameter.
  const ParamSpec& spec(ParamId id) const;

  /// All 30 specs in ParamId order.
  const std::vector<ParamSpec>& specs() const { return specs_; }

  /// Draws one valid configuration. Always satisfies validate().
  CpuConfig sample(Rng& rng, const SampleConstraints& constraints = {}) const;

  /// Neighbourhood mutation for local search: each parameter moves to an
  /// adjacent range value with probability `rate` (at least one parameter
  /// always moves), then the §V-A dependent bounds (load/store bandwidth ≥
  /// one vector, L2 larger and slower than L1) and the L1 geometry are
  /// re-established by raising/halving the dependent parameters. The result
  /// always satisfies validate(); a pinned vector length is preserved.
  CpuConfig mutate(const CpuConfig& base, Rng& rng, double rate = 0.2,
                   const SampleConstraints& constraints = {}) const;

 private:
  std::vector<ParamSpec> specs_;
};

}  // namespace adse::config
