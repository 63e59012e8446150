#include "config/param_space.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace adse::config {

namespace {

/// Enumerates a discrete range: the optional extra floor, then the powers of
/// two or the linear steps up to max.
std::vector<double> enumerate_values(const ParamSpec& spec) {
  std::vector<double> out;
  if (spec.extra_floor) out.push_back(*spec.extra_floor);
  if (spec.kind == StepKind::kPow2) {
    for (double v = spec.min; v <= spec.max; v *= 2) out.push_back(v);
  } else {
    for (double v = spec.min; v <= spec.max + 1e-9; v += spec.step) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace

const std::vector<double>& ParamSpec::values() const {
  ADSE_REQUIRE_MSG(kind != StepKind::kReal,
                   "values() on continuous parameter '" << name << "'");
  return table;
}

double ParamSpec::sample(Rng& rng, std::optional<double> raised_min) const {
  const double lo = raised_min ? std::max(min, *raised_min) : min;
  ADSE_REQUIRE_MSG(lo <= max, "raised lower bound " << lo << " above max "
                                                    << max << " for '" << name
                                                    << "'");
  if (kind == StepKind::kReal) {
    return rng.uniform_real(lo, max);
  }
  // The table ascends, so the values >= lo are a suffix of it.
  const auto first = std::partition_point(
      table.begin(), table.end(), [lo](double v) { return v < lo; });
  const auto count = static_cast<std::size_t>(table.end() - first);
  ADSE_REQUIRE_MSG(count > 0, "no values >= " << lo << " for '" << name << "'");
  return first[static_cast<std::ptrdiff_t>(rng.index(count))];
}

double ParamSpec::neighbor(double current, Rng& rng,
                           std::optional<double> raised_min) const {
  const double lo = raised_min ? std::max(min, *raised_min) : min;
  ADSE_REQUIRE_MSG(lo <= max, "raised lower bound " << lo << " above max "
                                                    << max << " for '" << name
                                                    << "'");
  if (kind == StepKind::kReal) {
    const double span = (max - min) * 0.1;
    const double jittered = current + rng.uniform_real(-span, span);
    return std::clamp(jittered, lo, max);
  }
  const std::vector<double>& vals = table;
  // Index of the value closest to `current` (mutation chains may hand us a
  // value that a constraint repair moved off-grid).
  std::size_t idx = 0;
  for (std::size_t i = 1; i < vals.size(); ++i) {
    if (std::abs(vals[i] - current) < std::abs(vals[idx] - current)) idx = i;
  }
  double moves[2];
  std::size_t num_moves = 0;
  if (idx > 0 && vals[idx - 1] >= lo) moves[num_moves++] = vals[idx - 1];
  if (idx + 1 < vals.size() && vals[idx + 1] >= lo) {
    moves[num_moves++] = vals[idx + 1];
  }
  if (num_moves == 0) return raise_to(lo);
  return moves[rng.index(num_moves)];
}

double ParamSpec::raise_to(double lo) const {
  ADSE_REQUIRE_MSG(lo <= max, "cannot raise '" << name << "' to " << lo
                                               << " (max " << max << ")");
  if (kind == StepKind::kReal) return std::max(min, lo);
  for (double v : table) {
    if (v >= lo - 1e-9) return v;
  }
  ADSE_REQUIRE_MSG(false, "no value >= " << lo << " for '" << name << "'");
  return max;
}

bool ParamSpec::contains(double v) const {
  if (kind == StepKind::kReal) return v >= min && v <= max;
  for (double x : table) {
    if (std::abs(x - v) < 1e-9) return true;
  }
  return false;
}

ParameterSpace::ParameterSpace() {
  auto pow2 = [](ParamId id, double lo, double hi) {
    return ParamSpec{id, param_name(id), lo, hi, 0, StepKind::kPow2, {}, {}};
  };
  auto lin = [](ParamId id, double lo, double hi, double step,
                std::optional<double> extra = std::nullopt) {
    return ParamSpec{id, param_name(id), lo, hi, step, StepKind::kLinear,
                     extra, {}};
  };
  auto real = [](ParamId id, double lo, double hi) {
    return ParamSpec{id, param_name(id), lo, hi, 0, StepKind::kReal, {}, {}};
  };

  specs_ = {
      // Table II — core parameters.
      pow2(ParamId::kVectorLength, 128, 2048),
      pow2(ParamId::kFetchBlockSize, 4, 2048),
      lin(ParamId::kLoopBufferSize, 1, 512, 1),
      lin(ParamId::kGpRegisters, 40, 512, 8, 38.0),
      lin(ParamId::kFpRegisters, 40, 512, 8, 38.0),
      lin(ParamId::kPredRegisters, 24, 512, 8),
      lin(ParamId::kCondRegisters, 8, 512, 8),
      lin(ParamId::kCommitWidth, 1, 64, 1),
      lin(ParamId::kFrontendWidth, 1, 64, 1),
      lin(ParamId::kLsqCompletionWidth, 1, 64, 1),
      lin(ParamId::kRobSize, 8, 512, 4),
      lin(ParamId::kLoadQueueSize, 4, 512, 4),
      lin(ParamId::kStoreQueueSize, 4, 512, 4),
      pow2(ParamId::kLoadBandwidth, 16, 1024),
      pow2(ParamId::kStoreBandwidth, 16, 1024),
      lin(ParamId::kMemRequestsPerCycle, 1, 32, 1),
      lin(ParamId::kMemLoadsPerCycle, 1, 32, 1),
      lin(ParamId::kMemStoresPerCycle, 1, 32, 1),
      // Table III — memory backend parameters.
      pow2(ParamId::kCacheLineWidth, 32, 256),
      pow2(ParamId::kL1Size, 4, 128),
      lin(ParamId::kL1Latency, 1, 8, 1),
      real(ParamId::kL1Clock, 1.0, 4.0),
      pow2(ParamId::kL1Assoc, 1, 16),
      pow2(ParamId::kL2Size, 64, 8192),
      lin(ParamId::kL2Latency, 4, 64, 1),
      real(ParamId::kL2Clock, 0.5, 4.0),
      pow2(ParamId::kL2Assoc, 1, 16),
      real(ParamId::kRamLatency, 60.0, 200.0),
      real(ParamId::kRamClock, 0.8, 3.2),
      lin(ParamId::kPrefetchDistance, 0, 16, 1),
  };
  ADSE_REQUIRE(specs_.size() == kNumParams);
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    ParamSpec& spec = specs_[i];
    ADSE_REQUIRE(static_cast<std::size_t>(spec.id) == i);
    if (spec.kind == StepKind::kReal) continue;
    spec.table = enumerate_values(spec);
    // sample() relies on the order to find the values above a bound.
    ADSE_REQUIRE_MSG(
        std::adjacent_find(spec.table.begin(), spec.table.end(),
                           [](double a, double b) { return a >= b; }) ==
            spec.table.end(),
        "values of '" << spec.name << "' do not ascend");
  }
}

const ParamSpec& ParameterSpace::spec(ParamId id) const {
  return specs_[static_cast<std::size_t>(id)];
}

CpuConfig ParameterSpace::sample(Rng& rng,
                                 const SampleConstraints& constraints) const {
  std::array<double, kNumParams> f{};
  auto draw = [&](ParamId id, std::optional<double> raised = std::nullopt) {
    f[static_cast<std::size_t>(id)] = spec(id).sample(rng, raised);
  };

  if (constraints.fixed_vector_length) {
    const double vl = *constraints.fixed_vector_length;
    ADSE_REQUIRE_MSG(spec(ParamId::kVectorLength).contains(vl),
                     "fixed vector length " << vl << " outside range");
    f[static_cast<std::size_t>(ParamId::kVectorLength)] = vl;
  } else {
    draw(ParamId::kVectorLength);
  }
  const double vl_bytes = f[static_cast<std::size_t>(ParamId::kVectorLength)] / 8.0;

  draw(ParamId::kFetchBlockSize);
  draw(ParamId::kLoopBufferSize);
  draw(ParamId::kGpRegisters);
  draw(ParamId::kFpRegisters);
  draw(ParamId::kPredRegisters);
  draw(ParamId::kCondRegisters);
  draw(ParamId::kCommitWidth);
  draw(ParamId::kFrontendWidth);
  draw(ParamId::kLsqCompletionWidth);
  draw(ParamId::kRobSize);
  draw(ParamId::kLoadQueueSize);
  draw(ParamId::kStoreQueueSize);
  // §V-A dependent bounds: bandwidth must cover at least one full vector.
  draw(ParamId::kLoadBandwidth, vl_bytes);
  draw(ParamId::kStoreBandwidth, vl_bytes);
  draw(ParamId::kMemRequestsPerCycle);
  draw(ParamId::kMemLoadsPerCycle);
  draw(ParamId::kMemStoresPerCycle);

  draw(ParamId::kCacheLineWidth);
  draw(ParamId::kL1Size);
  draw(ParamId::kL1Latency);
  draw(ParamId::kL1Clock);
  draw(ParamId::kL1Assoc);
  // §V-A dependent bounds: L2 strictly larger and slower than L1.
  draw(ParamId::kL2Size, f[static_cast<std::size_t>(ParamId::kL1Size)] * 2);
  draw(ParamId::kL2Latency,
       f[static_cast<std::size_t>(ParamId::kL1Latency)] + 1);
  draw(ParamId::kL2Clock);
  draw(ParamId::kL2Assoc);
  draw(ParamId::kRamLatency);
  draw(ParamId::kRamClock);
  draw(ParamId::kPrefetchDistance);

  // A tiny L1 with a wide line and high associativity can be geometrically
  // impossible (capacity < one set). Resample associativity downwards.
  while (f[static_cast<std::size_t>(ParamId::kL1Size)] * 1024.0 <
         f[static_cast<std::size_t>(ParamId::kCacheLineWidth)] *
             f[static_cast<std::size_t>(ParamId::kL1Assoc)]) {
    f[static_cast<std::size_t>(ParamId::kL1Assoc)] /= 2;
  }

  CpuConfig config = config_from_features(f);
  config.name = "sampled";
  validate(config);
  return config;
}

CpuConfig ParameterSpace::mutate(const CpuConfig& base, Rng& rng, double rate,
                                 const SampleConstraints& constraints) const {
  ADSE_REQUIRE_MSG(rate > 0.0 && rate <= 1.0, "mutation rate " << rate
                                                               << " not in (0, 1]");
  std::array<double, kNumParams> f = feature_vector(base);
  auto at = [&f](ParamId id) -> double& {
    return f[static_cast<std::size_t>(id)];
  };

  const bool vl_pinned = constraints.fixed_vector_length.has_value();
  if (vl_pinned) {
    const double vl = *constraints.fixed_vector_length;
    ADSE_REQUIRE_MSG(spec(ParamId::kVectorLength).contains(vl),
                     "fixed vector length " << vl << " outside range");
    at(ParamId::kVectorLength) = vl;
  }

  // Pick the set of parameters to move; resample until at least one moves so
  // every mutant differs from its parent.
  std::array<bool, kNumParams> move{};
  bool any = false;
  while (!any) {
    for (std::size_t i = 0; i < kNumParams; ++i) {
      if (vl_pinned && static_cast<ParamId>(i) == ParamId::kVectorLength) {
        move[i] = false;
        continue;
      }
      move[i] = rng.bernoulli(rate);
      any = any || move[i];
    }
  }
  for (std::size_t i = 0; i < kNumParams; ++i) {
    if (move[i]) f[i] = specs_[i].neighbor(f[i], rng);
  }

  // Re-establish the §V-A dependent bounds the independent moves may have
  // broken, always by raising the dependent side (the cheapest repair that
  // keeps the mutated values).
  const double vl_bytes = at(ParamId::kVectorLength) / 8.0;
  if (at(ParamId::kLoadBandwidth) < vl_bytes) {
    at(ParamId::kLoadBandwidth) = spec(ParamId::kLoadBandwidth).raise_to(vl_bytes);
  }
  if (at(ParamId::kStoreBandwidth) < vl_bytes) {
    at(ParamId::kStoreBandwidth) =
        spec(ParamId::kStoreBandwidth).raise_to(vl_bytes);
  }
  if (at(ParamId::kL2Size) <= at(ParamId::kL1Size)) {
    at(ParamId::kL2Size) = spec(ParamId::kL2Size).raise_to(at(ParamId::kL1Size) * 2);
  }
  if (at(ParamId::kL2Latency) <= at(ParamId::kL1Latency)) {
    at(ParamId::kL2Latency) =
        spec(ParamId::kL2Latency).raise_to(at(ParamId::kL1Latency) + 1);
  }
  // Same geometric repair as sample(): capacity must hold at least one set.
  while (at(ParamId::kL1Size) * 1024.0 <
         at(ParamId::kCacheLineWidth) * at(ParamId::kL1Assoc)) {
    at(ParamId::kL1Assoc) /= 2;
  }

  CpuConfig config = config_from_features(f);
  config.name = "mutated";
  validate(config);
  return config;
}

}  // namespace adse::config
