#pragma once
/// \file api.hpp
/// The stable public surface of the evaluation subsystem — the types a
/// caller needs to *ask* for an evaluation and to *read* the answer, split
/// out of `service.hpp` so clients of the eval-as-a-service daemon
/// (`adse::serve`) and in-process users of `EvalService` share one API
/// bit-for-bit:
///
///   * `EvalRequest`  — a design point, the app to run on it, and the
///     per-request routing flag (`allow_surrogate`);
///   * `EvalResponse` — the full simulator counter blocks plus an *explicit*
///     status code (`EvalStatus`) and provenance (`ResultSource`). Failures
///     travel as data, never as empty-slot conventions;
///   * `EvalError`    — a status + message pair for transport-level failures
///     (bad frames, drained servers) that never produced a run at all;
///   * `ServiceConfig` — the typed consolidation of every env knob the
///     service used to read piecemeal (ADSE_THREADS, ADSE_BATCH_K,
///     ADSE_FUSED_THRESHOLD, ADSE_FUSED_PROBE_EVERY). The environment
///     remains the *default source* (`ServiceConfig::from_env()`), but a
///     daemon or a test can now construct an explicit config and know no
///     hidden getenv remains;
///   * `Evaluator`    — the client/server-neutral interface: in-process
///     `EvalService` and the socket `serve::EvalClient` both implement it,
///     so campaign/DSE/bench code can be pointed at either.
///
/// The wire codec for these types lives in `eval/wire.hpp`; the service
/// behind them in `eval/service.hpp`.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "config/cpu_config.hpp"
#include "kernels/workloads.hpp"
#include "sim/simulation.hpp"

namespace adse::obs {
class Registry;
}  // namespace adse::obs

namespace adse::eval {

class Backend;
class FusedModel;
struct FusedOptions;

/// One evaluation to perform: a design point and the app to run on it.
struct EvalRequest {
  config::CpuConfig config;
  kernels::App app = kernels::App::kStream;
  /// Routing opt-in: when the evaluating service runs an uncertainty-gated
  /// fused surrogate (an `EvalPolicy::fused` model in-process, or a daemon
  /// started in routed mode), a request with this flag set may be answered
  /// by the surrogate if the model is confident. Requests with the flag
  /// clear always reach the real backend. The flag is inert — and the
  /// result bit-identical to the plain path — when no routing model is
  /// configured.
  bool allow_surrogate = true;
};

/// Explicit result status — the wire and in-process paths share these codes
/// instead of signalling failure through empty optionals or missing slots.
enum class EvalStatus : std::uint32_t {
  kOk = 0,
  kBadRequest = 1,       ///< malformed request payload (unknown app, sizes)
  kBadFrame = 2,         ///< framing error: bad magic/length/checksum
  kVersionMismatch = 3,  ///< peer speaks a different protocol version
  kBackendError = 4,     ///< the backend threw (e.g. a model InvariantError)
  kDraining = 5,         ///< server is draining and refused new work
  kTimeout = 6,          ///< client-side per-request timeout expired
  kDisconnected = 7,     ///< connection lost before a response arrived
  kInternal = 8,         ///< anything else; see the message
};

/// Human-readable slug for a status code ("ok", "draining", ...).
const char* status_name(EvalStatus status);

/// A transport- or protocol-level failure that never produced a run.
struct EvalError {
  EvalStatus status = EvalStatus::kInternal;
  std::string message;
};

/// Where a result came from (the memo decomposition the stats aggregate).
enum class ResultSource {
  kBackend,   ///< fresh backend run, paid in full
  kMemo,      ///< in-memory memo hit (evaluated earlier this process)
  kStore,     ///< served from the on-disk result store (a previous run paid)
  kInflight,  ///< joined an identical concurrently-running request
};

/// The answer to one EvalRequest. `status` is authoritative: `run` and
/// `source` are meaningful only when `ok()`; otherwise `error` says what
/// went wrong (explicit status codes instead of empty-slot conventions).
struct EvalResponse {
  EvalStatus status = EvalStatus::kOk;
  ResultSource source = ResultSource::kBackend;
  sim::RunResult run;
  std::string error;  ///< failure detail; empty when ok()

  bool ok() const { return status == EvalStatus::kOk; }
  std::uint64_t cycles() const { return run.cycles(); }
};

/// Transitional alias: PR 3's result type, now carrying an explicit status.
using EvalResult = EvalResponse;

/// Batch progress callback; may be invoked concurrently from workers.
using Progress = std::function<void(std::size_t done, std::size_t total)>;

/// Per-batch evaluation policy — the one-entry-point replacement for the
/// old `evaluate` / `evaluate_routed` split. Leave `fused` null for the
/// plain (bit-identical) path; set it to run the uncertainty-gated routing
/// policy over the requests that `allow_surrogate`.
struct EvalPolicy {
  /// Backend for real evaluations; nullptr = the service's cycle simulator.
  const Backend* backend = nullptr;
  /// Residual model enabling surrogate routing (DESIGN.md §14). nullptr —
  /// or a model whose threshold is <= 0 — routes nothing.
  FusedModel* fused = nullptr;
  Progress progress;
};

/// The client/server-neutral evaluation interface: `EvalService` answers
/// in-process, `serve::EvalClient` over a socket. Results come back in
/// request order; duplicate requests cost one backend run on the serving
/// side either way.
class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual std::vector<EvalResponse> evaluate(
      std::span<const EvalRequest> requests) = 0;
};

/// Typed service configuration. Every field has an explicit in-struct
/// default; `from_env()` is the single place the historical env knobs are
/// read (env remains the default source — `EvalService::shared()` and the
/// serve daemon construct themselves from it).
struct ServiceConfig {
  /// Worker threads; 0 inherits the process default (ADSE_THREADS, falling
  /// back to hardware concurrency) via adse::num_threads().
  int threads = 0;
  /// Batch width ceiling for config-parallel dispatch; 0 inherits
  /// ADSE_BATCH_K (default 8), <= 1 keeps every request on the per-request
  /// path.
  int batch_k = 0;
  /// Routing gate for the fused surrogate; < 0 inherits
  /// ADSE_FUSED_THRESHOLD. Consumed through fused_options().
  double fused_threshold = -1.0;
  /// Probe cadence for surrogate-routed evaluations; < 0 inherits
  /// ADSE_FUSED_PROBE_EVERY. Consumed through fused_options().
  int probe_every = -1;
  /// Path of the persistent result store; empty = in-memory memo only
  /// (hermetic, what unit tests want).
  std::string store_path;
  bool verbose = false;
  /// Metrics registry the service's "eval.*" counters live in. nullptr (the
  /// default) gives the service a private registry, so hermetic services —
  /// unit tests — never see another instance's traffic;
  /// `EvalService::shared()` reports into `obs::Registry::global()`.
  obs::Registry* registry = nullptr;

  /// The documented default: every inherit-from-env field resolved to its
  /// concrete environment value (the single read site for ADSE_THREADS /
  /// ADSE_BATCH_K / ADSE_FUSED_THRESHOLD / ADSE_FUSED_PROBE_EVERY).
  static ServiceConfig from_env();

  /// FusedOptions with this config's threshold/probe cadence applied on top
  /// of the env-derived defaults (forest shape, round size, ...).
  FusedOptions fused_options() const;
};

/// Transitional alias: PR 3's options struct, now the typed ServiceConfig.
using EvalOptions = ServiceConfig;

}  // namespace adse::eval
