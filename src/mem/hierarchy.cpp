#include "mem/hierarchy.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/require.hpp"

namespace adse::mem {

namespace {

constexpr std::uint64_t kPageBytes = 4096;

}  // namespace

CoreCycleTiming core_cycle_timing(const config::MemParams& params,
                                  double core_clock_ghz) {
  ADSE_REQUIRE(core_clock_ghz > 0);
  CoreCycleTiming t;
  t.l1_latency = params.l1_latency_cycles * core_clock_ghz / params.l1_clock_ghz;
  t.l2_latency = params.l2_latency_cycles * core_clock_ghz / params.l2_clock_ghz;
  t.ram_latency = params.ram_latency_ns * core_clock_ghz;
  t.l1_interval = core_clock_ghz / params.l1_clock_ghz / 2.0;
  t.l2_interval = core_clock_ghz / params.l2_clock_ghz;
  t.ram_interval = kRamServiceNsAt1Ghz / params.ram_clock_ghz * core_clock_ghz;
  return t;
}

MemoryHierarchy::MemoryHierarchy(const config::MemParams& params,
                                 double core_clock_ghz,
                                 const FidelityOptions& fidelity)
    : params_(params),
      fidelity_(fidelity),
      core_clock_ghz_(core_clock_ghz),
      l1_(CacheGeometry{static_cast<std::uint64_t>(params.l1_size_kib) * 1024,
                        static_cast<std::uint32_t>(params.cache_line_bytes),
                        static_cast<std::uint32_t>(params.l1_assoc)}),
      l2_(CacheGeometry{static_cast<std::uint64_t>(params.l2_size_kib) * 1024,
                        static_cast<std::uint32_t>(params.cache_line_bytes),
                        static_cast<std::uint32_t>(params.l2_assoc)}) {
  // The shared clock-domain conversion, then the proxy's DRAM penalties
  // applied on top (scale last, so the campaign path is bit-identical).
  const CoreCycleTiming t = core_cycle_timing(params, core_clock_ghz_);
  l1_lat_core_ = t.l1_latency;
  l2_lat_core_ = t.l2_latency;
  ram_lat_core_ = t.ram_latency * fidelity_.dram_latency_scale;
  l1_interval_ = t.l1_interval;
  l2_interval_ = t.l2_interval;
  ram_interval_ = t.ram_interval * fidelity_.dram_interval_scale;

  if (fidelity_.finite_banks > 0) {
    bank_free_.assign(static_cast<std::size_t>(fidelity_.finite_banks), 0.0);
    bank_last_line_.assign(static_cast<std::size_t>(fidelity_.finite_banks),
                           ~0ULL);
  }
  if (fidelity_.mshr_entries > 0) {
    mshr_busy_until_.assign(static_cast<std::size_t>(fidelity_.mshr_entries), 0.0);
  }
  if (fidelity_.model_tlb) {
    tlb_tags_.assign(static_cast<std::size_t>(fidelity_.tlb_entries), ~0ULL);
  }
  if (fidelity_.stream_prefetcher) {
    stream_heads_.assign(
        static_cast<std::size_t>(fidelity_.stream_table_entries), ~0ULL);
  }
}

void MemoryHierarchy::reset() {
  l1_.reset();
  l2_.reset();
  l1_free_ = l2_free_ = ram_free_ = 0.0;
  std::fill(bank_free_.begin(), bank_free_.end(), 0.0);
  std::fill(bank_last_line_.begin(), bank_last_line_.end(), ~0ULL);
  std::fill(mshr_busy_until_.begin(), mshr_busy_until_.end(), 0.0);
  std::fill(tlb_tags_.begin(), tlb_tags_.end(), ~0ULL);
  std::fill(stream_heads_.begin(), stream_heads_.end(), ~0ULL);
  stream_rr_ = 0;
  inflight_fills_.clear();
  stats_ = MemStats{};
}

double MemoryHierarchy::tlb_penalty(std::uint64_t addr) {
  if (!fidelity_.model_tlb) return 0.0;
  const std::uint64_t page = addr / kPageBytes;
  // Hash the page number (SplitMix64 mixer) so regular allocation strides do
  // not alias pathologically, as they would in a raw modulo index.
  std::uint64_t h = page;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  const std::size_t slot = static_cast<std::size_t>(h >> 33) % tlb_tags_.size();
  if (tlb_tags_[slot] == page) return 0.0;
  tlb_tags_[slot] = page;
  stats_.tlb_misses++;
  return fidelity_.tlb_walk_ns * core_clock_ghz_;
}

std::uint64_t MemoryHierarchy::line_request(std::uint64_t line_addr,
                                            bool is_store, double start) {
  stats_.line_requests++;
  if (is_store) {
    stats_.l1_writes++;
  } else {
    stats_.l1_reads++;
  }

  // Finite banks (proxy mode): back-to-back accesses to the same bank but a
  // *different* line serialise (subarray turnaround); repeat accesses to the
  // resident line stream from the bank's line buffer for free. Power-of-two
  // strides that alias onto one bank — MiniSweep's 3-D neighbour offsets are
  // the textbook case — pay the penalty the infinite-bank campaign model
  // hides.
  if (!bank_free_.empty()) {
    const std::uint64_t line_index = line_addr / l1_.geometry().line_bytes;
    const std::size_t bank =
        static_cast<std::size_t>(line_index % bank_free_.size());
    if (bank_last_line_[bank] != line_index) {
      if (bank_free_[bank] > start) {
        stats_.bank_conflicts++;
        start = bank_free_[bank];
      }
      // Bank busy for four L1 clock cycles after a line switch (non-pipelined
      // subarray read for a new row).
      bank_free_[bank] = start + 8.0 * l1_interval_;
      bank_last_line_[bank] = line_index;
    }
  }

  // L1 port.
  start = std::max(start, l1_free_);
  l1_free_ = start + l1_interval_;

  start += tlb_penalty(line_addr);

  if (!stream_heads_.empty()) {
    stream_prefetch(line_addr / l1_.geometry().line_bytes, start);
  }

  if (l1_.access(line_addr, is_store)) {
    stats_.l1_hits++;
    double ready = start + l1_lat_core_;
    // An in-flight prefetched line is not usable before it arrives.
    const auto it = inflight_fills_.find(line_addr);
    if (it != inflight_fills_.end()) {
      if (it->second > ready) ready = it->second;
      if (it->second <= start) inflight_fills_.erase(it);
    }
    return static_cast<std::uint64_t>(std::ceil(ready));
  }
  stats_.l1_misses++;

  // Finite MSHRs (proxy mode): an L1 miss needs a free miss-status register.
  if (!mshr_busy_until_.empty()) {
    auto slot = std::min_element(mshr_busy_until_.begin(), mshr_busy_until_.end());
    start = std::max(start, *slot);
  }

  // L2 port + lookup.
  stats_.l2_reads++;
  double t = std::max(start + l1_lat_core_, l2_free_);
  l2_free_ = t + l2_interval_;

  double ready;
  bool served_by_l2 = false;
  if (l2_.access(line_addr, false)) {
    stats_.l2_hits++;
    served_by_l2 = true;
    ready = t + l2_lat_core_;
    const auto it = inflight_fills_.find(line_addr);
    if (it != inflight_fills_.end()) {
      // Prefetch staged this line but it has not landed yet.
      if (it->second + l2_lat_core_ > ready) ready = it->second + l2_lat_core_;
      if (it->second <= start) inflight_fills_.erase(it);
    }
  } else {
    stats_.l2_misses++;
    // DRAM port + access.
    double r = std::max(t + l2_lat_core_, ram_free_);
    ram_free_ = r + ram_interval_;
    stats_.ram_requests++;
    ready = r + ram_lat_core_;

    // Fill L2; a dirty victim costs a DRAM writeback slot (bandwidth only —
    // the demand request does not wait for it).
    const Eviction l2_ev = l2_.insert(line_addr, false);
    if (l2_ev.evicted && l2_ev.dirty) {
      stats_.dirty_writebacks++;
      ram_free_ += ram_interval_;
    }
  }

  // Fill L1; dirty victims write back into L2 (one L2 request slot).
  const Eviction l1_ev = l1_.insert(line_addr, is_store);
  if (l1_ev.evicted && l1_ev.dirty) {
    stats_.l2_writes++;
    l2_.insert(l1_ev.line_addr, true);
    l2_free_ += l2_interval_;
  }

  if (!mshr_busy_until_.empty()) {
    auto slot = std::min_element(mshr_busy_until_.begin(), mshr_busy_until_.end());
    *slot = ready;
  }

  if (!served_by_l2 || fidelity_.prefetch_on_l2_hits) {
    prefetch_after_miss(line_addr, start, served_by_l2);
  }

  return static_cast<std::uint64_t>(std::ceil(ready));
}

void MemoryHierarchy::prefetch_after_miss(std::uint64_t line_addr,
                                          double start, bool served_by_l2) {
  const std::uint32_t line = l1_.geometry().line_bytes;
  const int distance = params_.prefetch_distance +
                       (served_by_l2 ? fidelity_.prefetch_boost_l2
                                     : fidelity_.prefetch_boost_ram);
  // Lazy pruning keeps the in-flight table bounded on long runs.
  if (inflight_fills_.size() > 4096) {
    for (auto it = inflight_fills_.begin(); it != inflight_fills_.end();) {
      it = (it->second <= start) ? inflight_fills_.erase(it) : std::next(it);
    }
  }

  for (int d = 1; d <= distance; ++d) {
    const std::uint64_t pf = line_addr + static_cast<std::uint64_t>(d) * line;
    if (fidelity_.prefetch_into_l1 && l1_.contains(pf)) continue;
    // The prefetch consumes backing-level bandwidth but never delays the
    // demand request that triggered it; its arrival time is recorded so a
    // demand access cannot use the line before it lands.
    double arrival;
    if (l2_.contains(pf)) {
      if (!fidelity_.prefetch_into_l1) continue;  // already staged in L2
      const double t2 = std::max(l2_free_, start);
      l2_free_ = t2 + l2_interval_;
      arrival = t2 + l2_lat_core_;
    } else {
      const double tr = std::max(ram_free_, start);
      ram_free_ = tr + ram_interval_;
      stats_.ram_requests++;
      arrival = tr + ram_lat_core_;
      const Eviction l2_ev = l2_.insert(pf, false);
      if (l2_ev.evicted && l2_ev.dirty) {
        stats_.dirty_writebacks++;
        ram_free_ += ram_interval_;
      }
    }
    if (fidelity_.prefetch_into_l1) {
      const Eviction l1_ev = l1_.insert(pf, false);
      if (l1_ev.evicted && l1_ev.dirty) {
        stats_.l2_writes++;
        l2_.insert(l1_ev.line_addr, true);
        l2_free_ += l2_interval_;
      }
    }
    inflight_fills_[pf] = arrival;
    stats_.prefetch_fills++;
  }
}

void MemoryHierarchy::issue_prefetch_line(std::uint64_t line_addr,
                                          double start) {
  if (l1_.contains(line_addr)) return;
  double arrival;
  if (l2_.contains(line_addr)) {
    const double t2 = std::max(l2_free_, start);
    l2_free_ = t2 + l2_interval_;
    arrival = t2 + l2_lat_core_;
  } else {
    const double tr = std::max(ram_free_, start);
    ram_free_ = tr + ram_interval_;
    stats_.ram_requests++;
    arrival = tr + ram_lat_core_;
    const Eviction l2_ev = l2_.insert(line_addr, false);
    if (l2_ev.evicted && l2_ev.dirty) {
      stats_.dirty_writebacks++;
      ram_free_ += ram_interval_;
    }
  }
  const Eviction l1_ev = l1_.insert(line_addr, false);
  if (l1_ev.evicted && l1_ev.dirty) {
    stats_.l2_writes++;
    l2_.insert(l1_ev.line_addr, true);
    l2_free_ += l2_interval_;
  }
  inflight_fills_[line_addr] = arrival;
  stats_.prefetch_fills++;
}

void MemoryHierarchy::stream_prefetch(std::uint64_t line_index, double start) {
  const std::uint32_t line = l1_.geometry().line_bytes;
  const int lookahead = params_.prefetch_distance + fidelity_.prefetch_boost_l2;
  for (std::size_t s = 0; s < stream_heads_.size(); ++s) {
    if (line_index == stream_heads_[s]) return;  // still on the same line
    if (line_index == stream_heads_[s] + 1) {
      // Stream advance: fetch the lookahead line so steady-state accesses
      // always find their data resident (subject to arrival times).
      stream_heads_[s] = line_index;
      issue_prefetch_line(
          (line_index + static_cast<std::uint64_t>(lookahead)) * line, start);
      return;
    }
  }
  // New (or broken) stream: take over the next slot round-robin.
  stream_heads_[stream_rr_ % stream_heads_.size()] = line_index;
  stream_rr_++;
}

AccessResult MemoryHierarchy::access(std::uint64_t addr,
                                     std::uint32_t size_bytes, bool is_store,
                                     std::uint64_t now) {
  ADSE_REQUIRE_MSG(size_bytes > 0, "zero-size memory access");
  if (is_store) {
    stats_.stores++;
  } else {
    stats_.loads++;
  }

  const std::uint32_t line = l1_.geometry().line_bytes;
  const std::uint64_t first = addr & ~static_cast<std::uint64_t>(line - 1);
  const std::uint64_t last =
      (addr + size_bytes - 1) & ~static_cast<std::uint64_t>(line - 1);

  AccessResult result;
  const auto start = static_cast<double>(now);
  std::uint64_t worst_ready = 0;
  for (std::uint64_t la = first;; la += line) {
    // With infinite banks each line request starts at `now` (parallel
    // issue); port queues (l1_free_/l2_free_/ram_free_) provide the only
    // serialisation, which models per-request bandwidth.
    const std::uint64_t hits_before = stats_.l1_hits;
    const std::uint64_t l2_hits_before = stats_.l2_hits;
    const std::uint64_t ready = line_request(la, is_store, start);
    if (ready > worst_ready) {
      worst_ready = ready;
      if (stats_.l1_hits > hits_before) {
        result.worst_level = std::max(result.worst_level, ServedBy::kL1);
      } else if (stats_.l2_hits > l2_hits_before) {
        result.worst_level = std::max(result.worst_level, ServedBy::kL2);
      } else {
        result.worst_level = ServedBy::kRam;
      }
    }
    if (la == last) break;
  }
  result.ready_cycle = worst_ready;
  if (CheckContext::enabled()) {
    // Structural invariants of the timing model: data is never ready before
    // the request was issued, and every line request was accounted as
    // exactly one L1 hit or one L1 miss.
    ADSE_REQUIRE_MSG(result.ready_cycle >= now,
                     "memory access ready at " << result.ready_cycle
                                               << " before issue cycle "
                                               << now);
    ADSE_REQUIRE_MSG(stats_.l1_hits + stats_.l1_misses == stats_.line_requests,
                     "L1 accounting broken: " << stats_.l1_hits << " hits + "
                                              << stats_.l1_misses
                                              << " misses != "
                                              << stats_.line_requests
                                              << " line requests");
    ADSE_REQUIRE_MSG(stats_.l2_hits + stats_.l2_misses == stats_.l1_misses,
                     "L2 accounting broken: " << stats_.l2_hits << " hits + "
                                              << stats_.l2_misses
                                              << " misses != "
                                              << stats_.l1_misses
                                              << " L1 misses");
  }
  return result;
}

}  // namespace adse::mem
