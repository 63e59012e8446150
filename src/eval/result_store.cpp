#include "eval/result_store.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/require.hpp"
#include "isa/microop.hpp"
#include "obs/log.hpp"

namespace adse::eval {

namespace {

constexpr char kMagic[8] = {'A', 'D', 'S', 'E', 'V', 'A', 'L', '2'};
constexpr std::uint32_t kVersion = 2;
/// Doubles in the v2 power block (dynamic_j, leakage_j, area_mm2).
constexpr std::size_t kPowerDoubles = 3;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(const unsigned char* data, std::size_t n,
                    std::uint64_t hash = kFnvOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// Applies `fn` to every persisted counter of a record's stat blocks, in one
/// fixed order shared by the writer and the loader. Adding/removing a field
/// here changes record_bytes(), which the header check turns into a clean
/// "stale store" rebuild instead of silent misparsing.
template <typename Stats, typename Fn>
void visit_counters(Stats& core, auto& mem, Fn&& fn) {
  fn(core.cycles);
  fn(core.retired);
  fn(core.retired_sve);
  for (int g = 0; g < isa::kNumInstrGroups; ++g) fn(core.retired_by_group[g]);
  fn(core.cycles_entered);
  fn(core.cycles_skipped);
  for (int s = 0; s < core::kNumStages; ++s) fn(core.stage_active_cycles[s]);
  fn(core.rs_wakeups);
  fn(core.stall_fetch_bytes);
  for (int c = 0; c < isa::kNumRegClasses; ++c) fn(core.stall_no_phys[c]);
  fn(core.stall_rob_full);
  fn(core.stall_rs_full);
  fn(core.stall_lq_full);
  fn(core.stall_sq_full);
  fn(core.loads_forwarded);
  fn(core.loads_sent);
  fn(core.stores_sent);
  fn(core.loop_buffer_ops);
  for (int c = 0; c < isa::kNumRegClasses; ++c) fn(core.regfile_reads[c]);
  for (int c = 0; c < isa::kNumRegClasses; ++c) fn(core.regfile_writes[c]);
  fn(core.sve_lane_ops);

  fn(mem.loads);
  fn(mem.stores);
  fn(mem.line_requests);
  fn(mem.l1_hits);
  fn(mem.l1_misses);
  fn(mem.l2_hits);
  fn(mem.l2_misses);
  fn(mem.ram_requests);
  fn(mem.dirty_writebacks);
  fn(mem.prefetch_fills);
  fn(mem.tlb_misses);
  fn(mem.bank_conflicts);
  fn(mem.l1_reads);
  fn(mem.l1_writes);
  fn(mem.l2_reads);
  fn(mem.l2_writes);
}

std::size_t num_counters() {
  std::size_t n = 0;
  core::CoreStats core;
  mem::MemStats mem;
  visit_counters(core, mem, [&n](std::uint64_t&) { ++n; });
  return n;
}

void put_u64(std::string& out, std::uint64_t v) {
  char raw[sizeof(v)];
  std::memcpy(raw, &v, sizeof(v));
  out.append(raw, sizeof(v));
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void put_double(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

double get_double(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string encode(const StoreRecord& record) {
  std::string out;
  put_u64(out, record.backend_tag);
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(record.app)));
  for (double f : record.features) put_double(out, f);
  // const_cast-free: copy and visit the copy.
  core::CoreStats core = record.core;
  mem::MemStats mem = record.mem;
  visit_counters(core, mem, [&out](std::uint64_t& v) { put_u64(out, v); });
  put_double(out, record.power.dynamic_j);
  put_double(out, record.power.leakage_j);
  put_double(out, record.power.area_mm2);
  put_u64(out, fnv1a(reinterpret_cast<const unsigned char*>(out.data()),
                     out.size()));
  return out;
}

/// Decodes one record; returns false on checksum mismatch (torn write).
bool decode(const unsigned char* data, std::size_t bytes, StoreRecord& record) {
  const std::size_t body = bytes - sizeof(std::uint64_t);
  if (fnv1a(data, body) != get_u64(data + body)) return false;
  const unsigned char* p = data;
  record.backend_tag = get_u64(p);
  p += 8;
  record.app = static_cast<std::int32_t>(
      static_cast<std::int64_t>(get_u64(p)));
  p += 8;
  for (double& f : record.features) {
    f = get_double(p);
    p += 8;
  }
  visit_counters(record.core, record.mem, [&p](std::uint64_t& v) {
    v = get_u64(p);
    p += 8;
  });
  record.power.dynamic_j = get_double(p);
  p += 8;
  record.power.leakage_j = get_double(p);
  p += 8;
  record.power.area_mm2 = get_double(p);
  return true;
}

std::string encode_header() {
  std::string out(kMagic, sizeof(kMagic));
  const std::uint32_t fields[3] = {
      kVersion, static_cast<std::uint32_t>(config::kNumParams),
      static_cast<std::uint32_t>(ResultStore::record_bytes())};
  out.append(reinterpret_cast<const char*>(fields), sizeof(fields));
  return out;
}

}  // namespace

std::size_t ResultStore::record_bytes() {
  // tag + app + features + counters + power block + checksum, 8-byte slots.
  return 8 * (2 + config::kNumParams + num_counters() + kPowerDoubles + 1);
}

std::uint64_t ResultStore::tag(const std::string& backend_key) {
  return fnv1a(reinterpret_cast<const unsigned char*>(backend_key.data()),
               backend_key.size());
}

ResultStore::ResultStore(std::string path, bool verbose)
    : path_(std::move(path)) {
  namespace fs = std::filesystem;
  const fs::path p(path_);
  if (p.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
  }

  // Load phase: swallow the whole file, keep the intact prefix.
  std::string contents;
  if (std::FILE* in = std::fopen(path_.c_str(), "rb")) {
    char buffer[1 << 16];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(in);
  }

  const std::string header = encode_header();
  std::size_t good = 0;
  if (contents.size() >= header.size() &&
      std::memcmp(contents.data(), header.data(), header.size()) == 0) {
    good = header.size();
    const std::size_t rec = record_bytes();
    const auto* data = reinterpret_cast<const unsigned char*>(contents.data());
    while (good + rec <= contents.size()) {
      StoreRecord record;
      if (!decode(data + good, rec, record)) break;
      loaded_.push_back(record);
      good += rec;
    }
    if (good < contents.size() && verbose) {
      obs::logf(obs::LogLevel::kWarn,
                "[eval-store] %s: dropping %zu torn trailing bytes "
                "(%zu records intact)\n",
                path_.c_str(), contents.size() - good, loaded_.size());
    }
  } else if (!contents.empty() && verbose) {
    obs::logf(obs::LogLevel::kWarn,
              "[eval-store] %s: stale or foreign header; rebuilding\n",
              path_.c_str());
  }

  // Publish phase: rewrite header + intact records if anything was torn or
  // stale, then hold an append handle.
  if (good != contents.size() || contents.empty()) {
    std::FILE* out = std::fopen(path_.c_str(), "wb");
    ADSE_REQUIRE_MSG(out != nullptr, "cannot open eval store " << path_);
    std::fwrite(header.data(), 1, header.size(), out);
    for (const StoreRecord& record : loaded_) {
      const std::string bytes = encode(record);
      std::fwrite(bytes.data(), 1, bytes.size(), out);
    }
    std::fclose(out);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  ADSE_REQUIRE_MSG(file_ != nullptr,
                   "cannot open eval store " << path_ << " for append");
}

ResultStore::~ResultStore() {
  // Close under the append lock: a pool thread finishing its last run while
  // static destruction tears the service down must find either an open
  // handle or a clean nullptr — never a freed FILE*.
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

std::size_t ResultStore::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

void ResultStore::append(const StoreRecord& record) {
  const std::string bytes = encode(record);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) == bytes.size() &&
      std::fflush(file_) == 0) {
    ++appended_;
    return;
  }
  // A failed write (full disk, file-size limit) may have left a torn record.
  // Stop appending so no intact record can follow it: the loader's torn-tail
  // truncation repairs the file on the next open.
  obs::logf(obs::LogLevel::kWarn,
            "[eval-store] %s: append failed (%s); no further records will "
            "persist from this process\n",
            path_.c_str(), std::strerror(errno));
  std::fclose(file_);
  file_ = nullptr;
}

void ResultStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

void ResultStore::visit_run_counters(
    core::CoreStats& core, mem::MemStats& mem,
    const std::function<void(std::uint64_t&)>& fn) {
  visit_counters(core, mem, fn);
}

}  // namespace adse::eval
