#include "check/fuzz.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "check/check.hpp"
#include "common/check.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "config/baselines.hpp"
#include "config/param_space.hpp"
#include "kernels/threaded.hpp"
#include "obs/log.hpp"
#include "sim/multicore.hpp"

namespace adse::check {

namespace {

using config::CpuConfig;
using config::kNumParams;
using config::ParamId;

constexpr char kReproHeader[] = "adse-repro v2";

/// Core table: the kNumParams features, then the app.
constexpr std::size_t kAppDim = kNumParams;

/// Coherence table, in order.
enum CoherenceDim : std::size_t {
  kCores, kScheme, kEntries, kVl, kMcApp, kInterleaveSeed, kNumCoherenceDims
};

/// Coherence sampling ranges. VLs stay modest (wide vectors multiply lines
/// per access, not protocol variety); sparse entry budgets are deliberately
/// tiny so directory evictions actually happen inside short fuzz traces.
constexpr std::array<int, 4> kVlChoices = {128, 256, 512, 1024};
constexpr std::array<int, 4> kSparseEntryChoices = {0, 8, 16, 64};

/// Largest per-core start skew in cycles. Small on purpose: the interesting
/// races live within a few protocol round-trips of each other.
constexpr std::uint64_t kMaxSkewCycles = 48;

/// Value bounds: integer fields are ints; interleave seeds stay below 2^53,
/// where doubles still hold every integer exactly.
constexpr double kIntLimit = 2147483648.0;
constexpr double kSeedLimit = 9007199254740992.0;

const std::array<std::string, 2> kFuzzKindNames = {"core", "coherence"};
const std::array<std::string, 3> kViolationKindNames = {
    "invariant", "monotonicity", "coherence"};

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ';';
  }
  return s;
}

std::uint64_t parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    throw InvariantError("cannot parse '" + s + "' as an unsigned integer");
  }
  return v;
}

std::vector<std::string> words_of(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  for (std::string w; is >> w;) out.push_back(std::move(w));
  return out;
}

bool is_index(double v, double n) {
  return v >= 0 && v < n && v == std::floor(v);
}

DesignSpace make_core_space() {
  DesignSpace space;
  space.kind = FuzzKind::kCore;
  const auto baseline = config::feature_vector(config::thunderx2_baseline());
  for (std::size_t i = 0; i < kNumParams; ++i) {
    space.dims.push_back(
        {config::param_name(static_cast<ParamId>(i)), baseline[i], {}});
  }
  Dimension app{"app", static_cast<double>(kernels::App::kStream), {}};
  for (int a = 0; a < kernels::kNumApps; ++a) {
    app.labels.push_back(kernels::app_slug(static_cast<kernels::App>(a)));
  }
  space.dims.push_back(std::move(app));
  return space;
}

DesignSpace make_coherence_space() {
  DesignSpace space;
  space.kind = FuzzKind::kCoherence;
  Dimension scheme{"scheme", 0.0, {}};
  for (config::DirectoryScheme s :
       {config::DirectoryScheme::kFullMap, config::DirectoryScheme::kSparse}) {
    scheme.labels.push_back(config::directory_scheme_name(s));
  }
  Dimension app{"app", static_cast<double>(kernels::McApp::kRingPass), {}};
  for (int a = 0; a < kernels::kNumMcApps; ++a) {
    app.labels.push_back(kernels::mc_app_slug(static_cast<kernels::McApp>(a)));
  }
  space.dims = {{"cores", 2.0, {}}, std::move(scheme),
                {"entries", 0.0, {}}, {"vl", 128.0, {}},
                std::move(app),       {"interleave_seed", 0.0, {}}};
  return space;
}

std::vector<std::uint64_t> skews_from_seed(std::uint64_t interleave_seed,
                                           int cores) {
  if (interleave_seed == 0) return {};
  Rng rng(interleave_seed);
  std::vector<std::uint64_t> skew(static_cast<std::size_t>(cores));
  for (auto& s : skew) {
    s = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kMaxSkewCycles)));
  }
  return skew;
}

/// One check of a single (config, app) evaluation: structural invariants
/// (surfaced by evaluate_checked) plus the oracle properties. Returns the
/// combined failure message, or "" for a clean run; `cycles` is filled for
/// runs that completed.
std::string check_core_point(eval::EvalService& service,
                             const CpuConfig& config, kernels::App app,
                             std::uint64_t* cycles) {
  const eval::EvalResponse checked = service.evaluate_checked({config, app});
  if (!checked.ok()) return checked.error;
  if (cycles != nullptr) *cycles = checked.cycles();
  const isa::Program& trace =
      service.trace(app, config.core.vector_length_bits);
  const std::vector<std::string> violations =
      verify_run(config, trace, checked.run);
  std::string out;
  for (const std::string& v : violations) out += (out.empty() ? "" : "; ") + v;
  return out;
}

/// The point plus, for a monotonicity violation, both ends of its chain
/// pair must be valid members of the design space.
std::string violation_invalid_reason(const Violation& violation) {
  const DesignSpace& space = design_space(violation.fuzz_kind());
  std::string reason = space.invalid_reason(violation.point);
  if (!reason.empty() || violation.kind != Violation::Kind::kMonotonicity) {
    return reason;
  }
  if (violation.chain_dim < 0 ||
      violation.chain_dim >= static_cast<int>(kNumParams)) {
    return "monotonicity violation without a chain parameter";
  }
  for (double value : {violation.chain_lo, violation.chain_hi}) {
    Point end = violation.point;
    end[static_cast<std::size_t>(violation.chain_dim)] = value;
    reason = space.invalid_reason(end);
    if (!reason.empty()) return "chain point: " + reason;
  }
  return "";
}

/// Core iteration: the sampled point itself, then a monotonicity chain
/// through it.
std::vector<Violation> probe_core(eval::EvalService& service,
                                  const config::ParameterSpace& space,
                                  Rng& rng, int chain_points,
                                  std::atomic<std::uint64_t>& evaluations) {
  const CpuConfig config = space.sample(rng);
  const kernels::App app =
      kernels::all_apps()[rng.index(kernels::all_apps().size())];
  std::vector<Violation> found;
  const auto invariant = [&](const CpuConfig& c, std::string message) {
    Violation v;
    v.kind = Violation::Kind::kInvariant;
    v.point = core_point(c, app);
    v.message = std::move(message);
    found.push_back(std::move(v));
  };

  evaluations.fetch_add(1, std::memory_order_relaxed);
  std::string message = check_core_point(service, config, app, nullptr);
  if (!message.empty()) invariant(config, std::move(message));

  // The prefetcher is disabled for the chain: with it on, extra capacity
  // legitimately hurts sometimes (a deeper ROB exposes more loads, whose
  // prefetches contend with demand fills for RAM bandwidth), so "more is
  // never slower" only holds for demand-only memory traffic.
  const CpuConfig chain_base =
      with_param(config, ParamId::kPrefetchDistance, 0.0);
  const ParamId param =
      monotone_params()[rng.index(monotone_params().size())];
  const std::vector<double> range = space.spec(param).values();
  const std::size_t points = std::min<std::size_t>(
      static_cast<std::size_t>(chain_points), range.size());
  std::set<std::size_t> picked;
  while (picked.size() < points) picked.insert(rng.index(range.size()));
  std::vector<double> values;
  for (std::size_t idx : picked) values.push_back(range[idx]);

  evaluations.fetch_add(values.size(), std::memory_order_relaxed);
  const ChainResult chain = run_chain(service, chain_base, param, values, app);
  // One invariant finding per iteration is enough signal (and keeps
  // (kind, iteration) unique, which names the repro file).
  for (std::size_t p = 0; found.empty() && p < chain.errors.size(); ++p) {
    if (!chain.errors[p].empty()) {
      invariant(with_param(chain_base, param, chain.values[p]),
                chain.errors[p]);
    }
  }
  const int regression = chain.first_regression();
  if (regression >= 0) {
    // Compare against the last clean point before the regression.
    auto prev = static_cast<std::size_t>(regression - 1);
    while (prev > 0 && !chain.errors[prev].empty()) --prev;
    const auto hi = static_cast<std::size_t>(regression);
    Violation v;
    v.kind = Violation::Kind::kMonotonicity;
    v.chain_dim = static_cast<int>(param);
    v.chain_lo = chain.values[prev];
    v.chain_hi = chain.values[hi];
    v.cycles_lo = chain.cycles[prev];
    v.cycles_hi = chain.cycles[hi];
    v.point = core_point(with_param(chain_base, param, v.chain_lo), app);
    std::ostringstream os;
    os << "raising " << config::param_name(param) << " from " << v.chain_lo
       << " to " << v.chain_hi << " on '" << kernels::app_slug(app)
       << "' raised cycles from " << v.cycles_lo << " to " << v.cycles_hi;
    v.message = os.str();
    found.push_back(std::move(v));
  }
  return found;
}

/// Coherence iteration: one random machine and schedule, every law armed.
std::vector<Violation> probe_coherence(const FuzzOptions& options, Rng& rng) {
  Point p(kNumCoherenceDims);
  int max_log2 = 1;
  while ((2 << max_log2) <= options.max_cores) max_log2++;
  p[kCores] = 2 << rng.uniform_int(0, max_log2 - 1);
  const bool sparse = rng.bernoulli(0.5);
  p[kScheme] = static_cast<double>(sparse ? config::DirectoryScheme::kSparse
                                          : config::DirectoryScheme::kFullMap);
  p[kEntries] =
      sparse ? kSparseEntryChoices[rng.index(kSparseEntryChoices.size())] : 0;
  p[kVl] = kVlChoices[rng.index(kVlChoices.size())];
  p[kMcApp] = static_cast<double>(rng.index(kernels::all_mc_apps().size()));
  p[kInterleaveSeed] = static_cast<double>(rng.next() >> 11);  // < 2^53

  std::string message = run_coherence_point(p, options.inject);
  if (message.empty()) return {};
  Violation v;
  v.kind = Violation::Kind::kCoherence;
  v.point = std::move(p);
  v.message = std::move(message);
  return {std::move(v)};
}

}  // namespace

// ---- design spaces ---------------------------------------------------------

const std::string& fuzz_kind_name(FuzzKind kind) {
  return kFuzzKindNames[static_cast<std::size_t>(kind)];
}

FuzzKind fuzz_kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kFuzzKindNames.size(); ++i) {
    if (name == kFuzzKindNames[i]) return static_cast<FuzzKind>(i);
  }
  throw InvariantError("unknown fuzz kind '" + name +
                       "' (expected core or coherence)");
}

const std::string& violation_kind_name(Violation::Kind kind) {
  return kViolationKindNames[static_cast<std::size_t>(kind)];
}

Point DesignSpace::baseline() const {
  Point out;
  for (const Dimension& d : dims) out.push_back(d.baseline);
  return out;
}

std::size_t DesignSpace::index(const std::string& name) const {
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (dims[i].name == name) return i;
  }
  throw InvariantError("unknown " + fuzz_kind_name(kind) + " dimension '" +
                       name + "'");
}

std::vector<std::size_t> DesignSpace::diff(const Point& point) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (point[i] != dims[i].baseline) out.push_back(i);
  }
  return out;
}

std::string DesignSpace::invalid_reason(const Point& point) const {
  if (point.size() != dims.size()) {
    return "expected " + std::to_string(dims.size()) + " dimensions, got " +
           std::to_string(point.size());
  }
  // Integer fields decode by truncation to int, so every value must fit
  // one; coherence dimensions are all non-negative integers (the
  // interleave seed up to 2^53).
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const double v = point[i];
    bool ok = std::isfinite(v) && std::fabs(v) < kIntLimit;
    if (!dims[i].labels.empty()) {
      ok = is_index(v, static_cast<double>(dims[i].labels.size()));
    } else if (kind == FuzzKind::kCoherence) {
      ok = is_index(v, i == kInterleaveSeed ? kSeedLimit : kIntLimit);
    }
    if (!ok) return dims[i].name + " = " + format_value(v) + " is out of range";
  }
  CpuConfig config;
  if (kind == FuzzKind::kCore) {
    config = core_config(point);
    // A point must round-trip through the configuration it describes.
    const auto features = config::feature_vector(config);
    if (!std::equal(features.begin(), features.end(), point.begin())) {
      return "a parameter value is not representable";
    }
  } else {
    const double cores = point[kCores];
    if (cores < 2 || cores > 16 || !std::has_single_bit(
                                       static_cast<unsigned>(cores))) {
      return "cores = " + format_value(cores) +
             " is not a power of two in [2,16]";
    }
    config = coherence_config(point);
  }
  try {
    config::validate(config);
  } catch (const InvariantError& e) {
    return e.what();
  }
  return "";
}

const DesignSpace& design_space(FuzzKind kind) {
  static const DesignSpace core = make_core_space();
  static const DesignSpace coherence = make_coherence_space();
  return kind == FuzzKind::kCore ? core : coherence;
}

Point core_point(const CpuConfig& config, kernels::App app) {
  const auto features = config::feature_vector(config);
  Point out(features.begin(), features.end());
  out.push_back(static_cast<double>(app));
  return out;
}

CpuConfig core_config(const Point& point) {
  ADSE_REQUIRE(point.size() == kNumParams + 1);
  std::array<double, kNumParams> features{};
  std::copy_n(point.begin(), kNumParams, features.begin());
  CpuConfig out = config::config_from_features(features);
  out.name = "fuzz";
  return out;
}

kernels::App core_app(const Point& point) {
  ADSE_REQUIRE(point.size() == kNumParams + 1);
  return static_cast<kernels::App>(point[kAppDim]);
}

CpuConfig coherence_config(const Point& point) {
  ADSE_REQUIRE(point.size() == kNumCoherenceDims);
  CpuConfig cfg = config::thunderx2_baseline();
  const int vl = static_cast<int>(point[kVl]);
  cfg.core.vector_length_bits = vl;
  // The ThunderX2 pipes are sized for 128-bit vectors; a functional design
  // must move a full vector per request (§V-A validation), so widen them to
  // the sampled VL.
  cfg.core.load_bandwidth_bytes = std::max(cfg.core.load_bandwidth_bytes, vl / 8);
  cfg.core.store_bandwidth_bytes =
      std::max(cfg.core.store_bandwidth_bytes, vl / 8);
  cfg.mc.num_cores = static_cast<int>(point[kCores]);
  cfg.mc.directory_scheme =
      static_cast<config::DirectoryScheme>(static_cast<int>(point[kScheme]));
  cfg.mc.directory_entries = static_cast<int>(point[kEntries]);
  cfg.name = "coherence-fuzz";
  return cfg;
}

std::string run_coherence_point(const Point& point,
                                coherence::InjectedBug inject) {
  const std::string invalid =
      design_space(FuzzKind::kCoherence).invalid_reason(point);
  ADSE_REQUIRE_MSG(invalid.empty(), "invalid coherence point: " << invalid);
  const CpuConfig cfg = coherence_config(point);
  const auto app = static_cast<kernels::McApp>(point[kMcApp]);
  const kernels::ThreadedProgram program = kernels::build_mc_app(
      app, cfg.mc.num_cores, cfg.core.vector_length_bits);
  sim::MulticoreOptions options;
  options.inject = inject;
  options.start_skew = skews_from_seed(
      static_cast<std::uint64_t>(point[kInterleaveSeed]), cfg.mc.num_cores);
  // Tight walk cadence: the fuzzer trades throughput for the earliest
  // possible detection of a structural-law break.
  options.walk_every = 64;
  const ScopedCheck armed(true);
  try {
    const sim::MulticoreResult result =
        sim::simulate_multicore(cfg, program, options);
    // Terminal sanity: the lockstep loop retires every µop of every thread.
    std::uint64_t expected = 0;
    for (const auto& t : program.threads) expected += t.ops.size();
    ADSE_REQUIRE_MSG(result.retired_uops == expected,
                     "retired " << result.retired_uops << " of " << expected
                                << " µops");
    ADSE_REQUIRE_MSG(result.cycles > 0, "zero-cycle multicore run");
  } catch (const InvariantError& e) {
    return e.what();
  }
  return "";
}

// ---- monotonicity ------------------------------------------------------------

const std::vector<ParamId>& monotone_params() {
  // Capacity/width resources only: raising one relaxes a stall condition
  // and changes nothing else about the model (latencies, port counts and
  // the memory picture are untouched). Deliberately excluded: cache
  // geometry, clocks, prefetch depth and bandwidth caps, which legitimately
  // trade off (a bigger line evicts differently; deeper prefetch pollutes);
  // and lsq_completion_width, which the fuzz soak showed is not strictly
  // monotone — completing loads sooner re-times later memory accesses
  // against the prefetcher, occasionally costing a few cycles.
  static const std::vector<ParamId> params = {
      ParamId::kLoopBufferSize, ParamId::kGpRegisters,
      ParamId::kFpRegisters,    ParamId::kPredRegisters,
      ParamId::kCondRegisters,  ParamId::kCommitWidth,
      ParamId::kFrontendWidth,  ParamId::kRobSize,
      ParamId::kLoadQueueSize,  ParamId::kStoreQueueSize,
  };
  return params;
}

double param_value(const CpuConfig& config, ParamId id) {
  return config::feature_vector(config)[static_cast<std::size_t>(id)];
}

CpuConfig with_param(const CpuConfig& config, ParamId id, double value) {
  auto features = config::feature_vector(config);
  features[static_cast<std::size_t>(id)] = value;
  CpuConfig out = config::config_from_features(features);
  out.name = config.name;
  return out;
}

int ChainResult::first_regression() const {
  int prev = -1;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (!errors[i].empty()) continue;  // invariant failure reported separately
    if (prev >= 0 &&
        cycles[i] >
            monotone_allowed_cycles(cycles[static_cast<std::size_t>(prev)])) {
      return static_cast<int>(i);
    }
    prev = static_cast<int>(i);
  }
  return -1;
}

ChainResult run_chain(eval::EvalService& service, const CpuConfig& base,
                      ParamId param, std::vector<double> values,
                      kernels::App app) {
  ADSE_REQUIRE_MSG(std::is_sorted(values.begin(), values.end()),
                   "chain values must ascend");
  ChainResult chain;
  chain.param = param;
  chain.values = std::move(values);
  chain.cycles.resize(chain.values.size(), 0);
  chain.errors.resize(chain.values.size());
  for (std::size_t i = 0; i < chain.values.size(); ++i) {
    const CpuConfig point = with_param(base, param, chain.values[i]);
    ADSE_REQUIRE_MSG(config::is_valid(point),
                     "chain point invalid: " << config::param_name(param)
                                             << " = " << chain.values[i]);
    chain.errors[i] = check_core_point(service, point, app, &chain.cycles[i]);
  }
  return chain;
}

// ---- violations, shrinking, repro files -------------------------------------

bool reproduces(eval::EvalService& service, const Violation& violation) {
  const std::string invalid = violation_invalid_reason(violation);
  ADSE_REQUIRE_MSG(invalid.empty(), "cannot replay an invalid point: "
                                        << invalid);
  // The structural checks inside core/mem only fire while the check flag is
  // on; force it so a replay is self-contained.
  const ScopedCheck scoped(true);
  switch (violation.kind) {
    case Violation::Kind::kInvariant:
      return !check_core_point(service, core_config(violation.point),
                               core_app(violation.point), nullptr)
                  .empty();
    case Violation::Kind::kMonotonicity: {
      const auto param = static_cast<ParamId>(violation.chain_dim);
      const CpuConfig base = core_config(violation.point);
      const kernels::App app = core_app(violation.point);
      const auto lo = service.evaluate_checked(
          {with_param(base, param, violation.chain_lo), app});
      const auto hi = service.evaluate_checked(
          {with_param(base, param, violation.chain_hi), app});
      // A (valid) pair that now trips an invariant is still a live finding.
      if (!lo.ok() || !hi.ok()) return true;
      return hi.cycles() > monotone_allowed_cycles(lo.cycles());
    }
    case Violation::Kind::kCoherence:
      return !run_coherence_point(violation.point, violation.inject).empty();
  }
  return false;
}

std::size_t shrink_violation(
    const std::function<bool(const Violation&)>& fires, Violation& violation) {
  const DesignSpace& space = design_space(violation.fuzz_kind());
  const Point goal = space.baseline();
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t d = 0; d < goal.size(); ++d) {
      if (violation.point[d] == goal[d] ||
          static_cast<int>(d) == violation.chain_dim) {
        continue;
      }
      Violation probe = violation;
      probe.point[d] = goal[d];
      if (!violation_invalid_reason(probe).empty()) continue;
      if (fires(probe)) {
        violation.point = std::move(probe.point);
        changed = true;
      }
    }
  }
  return space.diff(violation.point).size();
}

std::string repro_to_string(const Violation& violation) {
  const DesignSpace& space = design_space(violation.fuzz_kind());
  std::ostringstream os;
  os << kReproHeader << "\n";
  os << "kind: " << violation_kind_name(violation.kind) << "\n";
  os << "seed: " << violation.seed << "\n";
  os << "iteration: " << violation.iteration << "\n";
  if (violation.kind == Violation::Kind::kCoherence) {
    os << "inject: " << coherence::injected_bug_name(violation.inject) << "\n";
  }
  os << "message: " << one_line(violation.message) << "\n";
  if (violation.kind == Violation::Kind::kMonotonicity) {
    os << "chain: "
       << space.dims[static_cast<std::size_t>(violation.chain_dim)].name << " "
       << format_value(violation.chain_lo) << " "
       << format_value(violation.chain_hi) << "\n";
    os << "cycles: " << violation.cycles_lo << " " << violation.cycles_hi
       << "\n";
  }
  // Only the diff against the baseline — the same target the shrinker
  // reduces toward, so a minimal repro is a minimal file. The chain
  // dimension is carried by its chain line.
  for (std::size_t d : space.diff(violation.point)) {
    if (static_cast<int>(d) == violation.chain_dim) continue;
    const Dimension& dim = space.dims[d];
    os << "set: " << dim.name << " "
       << (dim.labels.empty()
               ? format_value(violation.point[d])
               : dim.labels[static_cast<std::size_t>(violation.point[d])])
       << "\n";
  }
  os << "end\n";
  return os.str();
}

Violation repro_from_string(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || trim(line) != kReproHeader) {
    throw InvariantError(std::string("not an ") + kReproHeader + " file");
  }
  Violation violation;
  bool have_kind = false;
  std::string chain_name;
  std::vector<std::pair<std::string, std::string>> sets;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") break;
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) {
      throw InvariantError("malformed repro line '" + line + "'");
    }
    const std::string key = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    const std::vector<std::string> words = words_of(value);
    const auto need = [&](std::size_t n) {
      if (words.size() != n) {
        throw InvariantError("repro line '" + line + "' needs " +
                             std::to_string(n) + " value(s)");
      }
    };
    if (key == "kind") {
      const auto it = std::find(kViolationKindNames.begin(),
                                kViolationKindNames.end(), value);
      if (it == kViolationKindNames.end()) {
        throw InvariantError("unknown repro kind '" + value + "'");
      }
      violation.kind = static_cast<Violation::Kind>(
          it - kViolationKindNames.begin());
      have_kind = true;
    } else if (key == "seed") {
      violation.seed = parse_u64(value);
    } else if (key == "iteration") {
      violation.iteration = parse_u64(value);
    } else if (key == "inject") {
      violation.inject = coherence::injected_bug_from_name(value);
    } else if (key == "message") {
      violation.message = value;
    } else if (key == "chain") {
      need(3);
      chain_name = words[0];
      violation.chain_lo = parse_double(words[1]);
      violation.chain_hi = parse_double(words[2]);
    } else if (key == "cycles") {
      need(2);
      violation.cycles_lo = parse_u64(words[0]);
      violation.cycles_hi = parse_u64(words[1]);
    } else if (key == "set") {
      need(2);
      sets.emplace_back(words[0], words[1]);
    } else {
      throw InvariantError("unknown repro key '" + key + "'");
    }
  }
  if (!have_kind) throw InvariantError("repro without a kind line");

  const DesignSpace& space = design_space(violation.fuzz_kind());
  violation.point = space.baseline();
  for (const auto& [name, value] : sets) {
    const std::size_t d = space.index(name);
    const std::vector<std::string>& labels = space.dims[d].labels;
    if (labels.empty()) {
      violation.point[d] = parse_double(value);
      continue;
    }
    const auto it = std::find(labels.begin(), labels.end(), value);
    if (it == labels.end()) {
      throw InvariantError("unknown " + name + " '" + value + "'");
    }
    violation.point[d] = static_cast<double>(it - labels.begin());
  }
  const bool monotone = violation.kind == Violation::Kind::kMonotonicity;
  if (monotone != !chain_name.empty()) {
    throw InvariantError(monotone ? "monotonicity repro without a chain line"
                                  : "chain line on a non-monotonicity repro");
  }
  if (monotone) {
    violation.chain_dim = static_cast<int>(space.index(chain_name));
    violation.point[static_cast<std::size_t>(violation.chain_dim)] =
        violation.chain_lo;
  }
  if (violation.kind != Violation::Kind::kCoherence &&
      violation.inject != coherence::InjectedBug::kNone) {
    throw InvariantError("injected defects apply to coherence repros only");
  }
  const std::string invalid = violation_invalid_reason(violation);
  if (!invalid.empty()) {
    throw InvariantError("repro point is invalid: " + invalid);
  }
  return violation;
}

void save_repro(const std::string& dir, Violation& violation) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/repro-" +
                           violation_kind_name(violation.kind) + "-" +
                           std::to_string(violation.seed) + "-" +
                           std::to_string(violation.iteration) + ".txt";
  std::ofstream out(path);
  ADSE_REQUIRE_MSG(out.good(), "cannot write repro file " << path);
  out << repro_to_string(violation);
  out.close();
  ADSE_REQUIRE_MSG(out.good(), "short write to repro file " << path);
  violation.repro_path = path;
}

Violation load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InvariantError("cannot read repro file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Violation violation = repro_from_string(buffer.str());
  violation.repro_path = path;
  return violation;
}

// ---- the campaign ------------------------------------------------------------

std::string FuzzReport::summary() const {
  std::ostringstream os;
  os << fuzz_kind_name(kind) << " fuzz: " << iterations << " iterations, "
     << evaluations << " evaluations, " << violations.size()
     << " violation(s)";
  return os.str();
}

FuzzReport fuzz(eval::EvalService& service, const FuzzOptions& options) {
  ADSE_REQUIRE_MSG(options.iterations > 0, "fuzz needs iterations > 0");
  ADSE_REQUIRE_MSG(options.chain_points >= 2,
                   "monotonicity chains need at least 2 points");
  ADSE_REQUIRE_MSG(options.max_cores >= 2 && options.max_cores <= 16 &&
                       std::has_single_bit(
                           static_cast<unsigned>(options.max_cores)),
                   "max_cores must be a power of two in [2,16], got "
                       << options.max_cores);
  ADSE_REQUIRE_MSG(options.kind == FuzzKind::kCoherence ||
                       options.inject == coherence::InjectedBug::kNone,
                   "injected defects apply to the coherence kind only");
  const ScopedCheck scoped(true);
  const config::ParameterSpace space;

  FuzzReport report;
  report.kind = options.kind;
  report.iterations = options.iterations;
  std::atomic<std::uint64_t> evaluations{0};
  std::mutex mutex;  // guards report.violations during the parallel phase

  service.parallel_for(
      static_cast<std::size_t>(options.iterations), [&](std::size_t i) {
        // Each iteration derives its own generator from (seed, i), so
        // results do not depend on thread count or completion order.
        Rng rng(options.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
        std::vector<Violation> found;
        if (options.kind == FuzzKind::kCore) {
          found = probe_core(service, space, rng, options.chain_points,
                             evaluations);
        } else {
          evaluations.fetch_add(1, std::memory_order_relaxed);
          found = probe_coherence(options, rng);
        }
        if (found.empty()) return;
        std::lock_guard<std::mutex> lock(mutex);
        for (Violation& v : found) {
          v.seed = options.seed;
          v.iteration = i;
          v.inject = options.inject;
          report.violations.push_back(std::move(v));
        }
      });

  // Deterministic report order whatever the scheduling.
  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              return a.kind < b.kind;
            });

  // Shrinking and repro writing are sequential: each probes the service
  // (memoised) and must stay deterministic.
  const auto fires = [&service](const Violation& probe) {
    return reproduces(service, probe);
  };
  for (Violation& violation : report.violations) {
    if (options.shrink) {
      const std::size_t left = shrink_violation(fires, violation);
      if (options.verbose) {
        obs::logf(obs::LogLevel::kInfo,
                  "[check] %s iteration %llu shrunk to %zu dimension(s): %s\n",
                  violation_kind_name(violation.kind).c_str(),
                  static_cast<unsigned long long>(violation.iteration), left,
                  violation.message.c_str());
      }
    }
    if (!options.repro_dir.empty()) save_repro(options.repro_dir, violation);
  }
  report.evaluations = evaluations.load();
  return report;
}

}  // namespace adse::check
