/// \file harness.cpp
/// Command-line entry of the repository benchmark harness:
///
///   perfbench_harness --workload campaign|search|serve|fused_campaign
///                     --seed N --seconds S --trace 0|1
///                     --work-dir DIR [--scale full|tiny] [--spans FILE]
///                     [--threads N]   (default: nproc - 1, within 1..4)
///
/// Runs one workload and prints, as its last stdout line, one JSON record:
/// metrics with units, workload-specific extras, the settings that pin the
/// workload, the machine fingerprint, every output check, and the
/// deterministic outputs ("pins") that run.py compares against
/// expected.json. Every ADSE_* environment variable is removed before the
/// library reads any, so a stray knob cannot change the workload.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/stats.hpp"
#include "eval/result_store.hpp"
#include "harness.hpp"

extern char** environ;

namespace perfbench {

Scale Scale::tiny() {
  Scale s;
  s.name = "tiny";
  s.campaign_configs = 24;
  s.search_budget = 48;
  s.serve_hot_configs = 8;
  s.serve_hit_requests = 200;
  s.serve_batches = 2;
  s.serve_batch_size = 64;
  s.serve_fresh_every = 100;
  s.fused_configs = 200;
  s.check_configs = 2;
  s.min_rounds = 2;
  s.setup_repeats = 3;
  return s;
}

double now_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

namespace {
thread_local std::vector<int> open_stack;
}  // namespace

int Spans::open(const std::string& name, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  if (parent < 0) parent = current();
  int id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(records_.size());
    records_.push_back({name, now_us(), 0.0, id, parent, request});
  }
  open_stack.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  const double end = now_us();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records_[static_cast<std::size_t>(id)].end_us = end;
  }
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

int Spans::current() { return open_stack.empty() ? -1 : open_stack.back(); }

void Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_us\": %.3f, \"end_us\": %.3f, \"request\": %llu}",
                  r.id, r.parent, r.name.c_str(), r.start_us, r.end_us,
                  static_cast<unsigned long long>(r.request));
    out << line << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

Spans& spans() {
  static Spans instance;
  return instance;
}

bool Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back({name, ok, detail});
  return ok;
}

bool Report::all_ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  tail.p50 = adse::percentile(values, 50.0);
  const double n = static_cast<double>(values.size());
  const std::pair<const char*, double> levels[] = {
      {"p99.9", 99.9}, {"p99", 99.0}, {"p95", 95.0}, {"p90", 90.0},
      {"p75", 75.0}};
  for (const auto& [label, p] : levels) {
    if (n * (100.0 - p) / 100.0 >= 10.0) {
      tail.label = label;
      tail.value = adse::percentile(values, p);
      break;
    }
  }
  return tail;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t run_digest(const adse::sim::RunResult& run) {
  std::uint64_t hash = kFnvBasis;
  adse::core::CoreStats core = run.core;
  adse::mem::MemStats mem = run.mem;
  adse::eval::ResultStore::visit_run_counters(
      core, mem, [&hash](std::uint64_t& v) { hash = fnv_mix(hash, v); });
  for (const double v :
       {run.power.dynamic_j, run.power.leakage_j,
        run.power.area_mm2}) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    hash = fnv_mix(hash, bits);
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

}  // namespace perfbench

namespace {

using perfbench::Report;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

void remove_adse_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string kv = *entry;
    if (kv.rfind("ADSE_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

std::string metric_map_json(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    out << (first ? "" : ", ") << "\"" << json_escape(name)
        << "\": {\"value\": " << json_number(value_unit.first)
        << ", \"unit\": \"" << json_escape(value_unit.second) << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string record_json(const perfbench::Options& options,
                        const Report& report, const std::string& error) {
  std::ostringstream out;
  out << "{\"workload\": \"" << json_escape(options.workload)
      << "\", \"seed\": " << options.seed
      << ", \"scale\": \"" << options.scale.name
      << "\", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"why\": \"" << json_escape(report.why) << "\""
      << ", \"correct\": "
      << (report.all_ok() && error.empty() ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed
      << ", \"error\": \"" << json_escape(error) << "\""
      << ", \"fingerprint\": {\"cpu\": \"" << json_escape(cpu_model())
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\"}"
      << ", \"settings\": {";
  for (std::size_t i = 0; i < report.settings.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(report.settings[i].first)
        << "\": \"" << json_escape(report.settings[i].second) << "\"";
  }
  out << "}, \"pins\": {";
  bool first = true;
  for (const auto& [name, value] : report.pins) {
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": \""
        << json_escape(value) << "\"";
    first = false;
  }
  out << "}, \"checks\": [";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const perfbench::Check& c = report.checks[i];
    out << (i ? ", " : "") << "{\"name\": \"" << json_escape(c.name)
        << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
        << json_escape(c.detail) << "\"}";
  }
  out << "], \"metrics\": " << metric_map_json(report.metrics)
      << ", \"extras\": " << metric_map_json(report.extras) << "}";
  return out.str();
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "campaign|search|serve|fused_campaign --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--scale full|tiny] [--spans FILE] "
               "[--threads N]\n",
               message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  remove_adse_environment();
  perfbench::Options options;
  options.threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--scale") {
        if (value == "tiny") {
          options.scale = perfbench::Scale::tiny();
        } else if (value != "full") {
          usage("unknown scale " + value);
        }
      } else if (flag == "--spans") {
        options.spans_path = value;
      } else if (flag == "--threads") {
        options.threads = std::stoi(value);
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (options.work_dir.empty()) usage("--work-dir is required");
  if (options.seconds <= 0.0) usage("--seconds must be positive");
  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  // One vCPU is left to the harness's main thread and the OS: on a shared
  // machine a fully subscribed run stalls on whichever thread is preempted.
  options.threads = options.threads > 0 ? std::min(options.threads, nproc)
                                        : std::clamp(nproc - 1, 1, 4);
  std::filesystem::create_directories(options.work_dir);
  perfbench::spans().enable(false);

  Report report;
  report.setting("threads", options.threads);
  std::string error;
  try {
    if (options.workload == "campaign") {
      perfbench::run_campaign(options, report);
    } else if (options.workload == "search") {
      perfbench::run_search(options, report);
    } else if (options.workload == "serve") {
      perfbench::run_serve(options, report);
    } else if (options.workload == "fused_campaign") {
      perfbench::run_fused(options, report);
    } else {
      usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& err) {
    error = err.what();
  }
  if (options.trace && !options.spans_path.empty()) {
    try {
      perfbench::spans().write(options.spans_path);
    } catch (const std::exception& err) {
      if (error.empty()) error = err.what();
    }
  }
  std::printf("%s\n", record_json(options, report, error).c_str());
  std::fflush(stdout);
  return report.all_ok() && error.empty() ? 0 : 1;
}
