#include "coherence/tiled_memory.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/require.hpp"

namespace adse::coherence {

namespace {

constexpr std::array<const char*, 4> kBugNames = {
    "none", "drop_inval_ack", "leak_sharer_bit", "skip_downgrade"};

}  // namespace

const std::string& injected_bug_name(InjectedBug bug) {
  static const std::array<std::string, 4> names = {
      kBugNames[0], kBugNames[1], kBugNames[2], kBugNames[3]};
  const auto idx = static_cast<std::size_t>(bug);
  ADSE_REQUIRE_MSG(idx < names.size(), "invalid InjectedBug " << idx);
  return names[idx];
}

InjectedBug injected_bug_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kBugNames.size(); ++i) {
    if (name == kBugNames[i]) return static_cast<InjectedBug>(i);
  }
  ADSE_REQUIRE_MSG(false, "unknown injected bug '" << name << "'");
  return InjectedBug::kNone;
}

TiledMemory::TiledMemory(const config::CpuConfig& cfg, double core_clock_ghz,
                         const TiledOptions& options)
    : tiles_(cfg.mc.num_cores),
      inject_(options.inject),
      inject_armed_(options.inject != InjectedBug::kNone) {
  ADSE_REQUIRE_MSG(tiles_ >= 1 && tiles_ <= 32 &&
                       std::has_single_bit(static_cast<unsigned>(tiles_)),
                   "tile count must be a power of two in [1,32], got "
                       << tiles_);
  ADSE_REQUIRE(core_clock_ghz > 0);
  const auto& mem = cfg.mem;
  line_bytes_ = static_cast<std::uint32_t>(mem.cache_line_bytes);
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes_));

  const mem::CacheGeometry l1_geom{
      static_cast<std::uint64_t>(mem.l1_size_kib) * 1024, line_bytes_,
      static_cast<std::uint32_t>(mem.l1_assoc)};
  const mem::CacheGeometry l2_geom{
      static_cast<std::uint64_t>(mem.l2_size_kib) * 1024, line_bytes_,
      static_cast<std::uint32_t>(mem.l2_assoc)};
  const int dir_entries = resolved_directory_entries(mem, cfg.mc);
  for (int t = 0; t < tiles_; ++t) {
    l1_.emplace_back(l1_geom);
    l2_.emplace_back(l2_geom);
    dir_.emplace_back(cfg.mc.directory_scheme, dir_entries);
  }
  l1_free_.assign(static_cast<std::size_t>(tiles_), 0.0);
  l2_free_.assign(static_cast<std::size_t>(tiles_), 0.0);

  // The clock-domain conversion MemoryHierarchy uses.
  const mem::CoreCycleTiming t = mem::core_cycle_timing(mem, core_clock_ghz);
  l1_lat_core_ = t.l1_latency;
  l2_lat_core_ = t.l2_latency;
  ram_lat_core_ = t.ram_latency;
  l1_interval_ = t.l1_interval;
  l2_interval_ = t.l2_interval;
  ram_interval_ = t.ram_interval;
}

double TiledMemory::net(int a, int b) const {
  int d = a > b ? a - b : b - a;
  d = std::min(d, tiles_ - d);
  return d * kHopCoreCycles;
}

void TiledMemory::add_sharer(DirEntry* e, int tile) {
  if ((e->sharers & bit(tile)) != 0) return;
  e->sharers |= bit(tile);
  stats_.sharer_adds++;
  live_sharer_bits_++;
}

void TiledMemory::drop_sharer(DirEntry* e, int slice, int tile) {
  if ((e->sharers & bit(tile)) == 0) return;
  e->sharers &= ~bit(tile);
  stats_.sharer_drops++;
  live_sharer_bits_--;
  if (e->owner == tile) e->owner = -1;
  if (e->sharers == 0) dir_[static_cast<std::size_t>(slice)].erase(e->line_addr);
}

double TiledMemory::invalidate_sharers(DirEntry* e, int slice, int exclude,
                                       double t) {
  const std::uint32_t others =
      e->sharers & ~(exclude >= 0 ? bit(exclude) : 0u);
  if (others == 0) return t;
  double worst_round_trip = 0.0;
  int count = 0;
  for (int s = 0; s < tiles_; ++s) {
    if ((others & bit(s)) == 0) continue;
    stats_.invalidations_sent++;
    count++;
    if (inject_ == InjectedBug::kDropInvalAck && inject_armed_) {
      // The message is lost in the network: the remote copy survives, the
      // sharer bit stays, and no ack ever returns.
      inject_armed_ = false;
      continue;
    }
    const bool present = l1_[static_cast<std::size_t>(s)].invalidate(
        e->line_addr);
    ADSE_REQUIRE_MSG(present, "directory claims tile "
                                  << s << " shares line 0x" << std::hex
                                  << e->line_addr << std::dec
                                  << " but its L1 does not hold it");
    stats_.invalidation_acks++;
    drop_sharer(e, slice, s);
    worst_round_trip = std::max(worst_round_trip, 2.0 * net(slice, s));
  }
  return t + worst_round_trip + count * kInvalServiceCoreCycles;
}

double TiledMemory::forced_invalidate(const DirEntry& victim, int slice,
                                      double t) {
  stats_.directory_evictions++;
  double worst_round_trip = 0.0;
  int count = 0;
  const bool had_owner = victim.owner >= 0;
  for (int s = 0; s < tiles_; ++s) {
    if ((victim.sharers & bit(s)) == 0) continue;
    stats_.invalidations_sent++;
    count++;
    const bool present = l1_[static_cast<std::size_t>(s)].invalidate(
        victim.line_addr);
    ADSE_REQUIRE_MSG(present, "directory-eviction victim line 0x"
                                  << std::hex << victim.line_addr << std::dec
                                  << " not resident in sharer tile " << s);
    stats_.invalidation_acks++;
    stats_.sharer_drops++;
    live_sharer_bits_--;
    worst_round_trip = std::max(worst_round_trip, 2.0 * net(slice, s));
  }
  if (had_owner) {
    // The owner's Modified data is newer than the slice copy: pull it back
    // before the tracking entry disappears. The line stays L2-resident.
    stats_.writebacks_owner++;
    stats_.l2_writes++;
    const mem::Eviction ev =
        l2_[static_cast<std::size_t>(slice)].insert(victim.line_addr, true);
    if (ev.evicted) handle_l2_eviction(slice, ev);
    l2_free_[static_cast<std::size_t>(slice)] += l2_interval_;
  }
  return t + worst_round_trip + count * kInvalServiceCoreCycles;
}

void TiledMemory::handle_l1_eviction(int tile, std::uint64_t line_addr,
                                     bool dirty) {
  // Non-silent replacement: the home is always told, keeping sharer vectors
  // exact. kLeakSharerBit models exactly this notification getting lost.
  const int h = home(line_addr);
  DirEntry* e = dir_[static_cast<std::size_t>(h)].find(line_addr);
  ADSE_REQUIRE_MSG(e != nullptr && (e->sharers & bit(tile)) != 0,
                   "L1 eviction of untracked line 0x" << std::hex << line_addr
                                                      << std::dec
                                                      << " from tile " << tile);
  if (dirty) {
    ADSE_REQUIRE_MSG(e->owner == tile,
                     "tile " << tile << " evicts Modified line 0x" << std::hex
                             << line_addr << std::dec
                             << " but directory owner is " << e->owner);
    stats_.writebacks_eviction++;
    stats_.l2_writes++;
    const mem::Eviction ev =
        l2_[static_cast<std::size_t>(h)].insert(line_addr, true);
    if (ev.evicted) handle_l2_eviction(h, ev);
    l2_free_[static_cast<std::size_t>(h)] += l2_interval_;
  }
  if (inject_ == InjectedBug::kLeakSharerBit && inject_armed_ && !dirty) {
    inject_armed_ = false;
    return;  // notification lost: the directory keeps a stale sharer bit
  }
  drop_sharer(e, h, tile);
}

void TiledMemory::handle_l2_eviction(int slice, const mem::Eviction& ev) {
  // Inclusivity: a line leaving the slice must leave every L1 above it.
  bool dirty = ev.dirty;
  DirEntry* e = dir_[static_cast<std::size_t>(slice)].find(ev.line_addr);
  if (e != nullptr) {
    if (e->owner >= 0) dirty = true;  // the owner's copy was newer
    for (int s = 0; s < tiles_; ++s) {
      if ((e->sharers & bit(s)) == 0) continue;
      stats_.invalidations_sent++;
      stats_.l2_back_invalidations++;
      const bool present =
          l1_[static_cast<std::size_t>(s)].invalidate(ev.line_addr);
      ADSE_REQUIRE_MSG(present, "back-invalidated line 0x"
                                    << std::hex << ev.line_addr << std::dec
                                    << " not resident in sharer tile " << s);
      stats_.invalidation_acks++;
      stats_.sharer_drops++;
      live_sharer_bits_--;
    }
    dir_[static_cast<std::size_t>(slice)].erase(ev.line_addr);
  }
  if (dirty) {
    stats_.dirty_writebacks++;
    ram_free_ += ram_interval_;  // bandwidth only, off the critical path
  }
}

double TiledMemory::line_request(int tile, std::uint64_t line_addr,
                                 bool is_store, double start) {
  const auto ti = static_cast<std::size_t>(tile);
  stats_.line_requests++;
  if (is_store) {
    stats_.l1_writes++;
  } else {
    stats_.l1_reads++;
  }

  // L1 port.
  start = std::max(start, l1_free_[ti]);
  l1_free_[ti] = start + l1_interval_;

  mem::Cache& l1 = l1_[ti];
  if (l1.contains(line_addr)) {
    stats_.l1_hits++;
    if (!is_store || l1.dirty(line_addr)) {
      // Read hit (S or M) or write hit in M: purely local.
      l1.access(line_addr, is_store);
      return start + l1_lat_core_;
    }
    // Write hit in S: upgrade. The home invalidates the other sharers and
    // grants ownership once every ack is in.
    l1.access(line_addr, false);
    const int h = home(line_addr);
    const auto hs = static_cast<std::size_t>(h);
    double t = start + l1_lat_core_ + net(tile, h);
    stats_.directory_lookups++;
    DirEntry* e = dir_[hs].find(line_addr);
    ADSE_REQUIRE_MSG(e != nullptr && (e->sharers & bit(tile)) != 0,
                     "upgrade for line 0x" << std::hex << line_addr << std::dec
                                           << " not tracked at home " << h);
    t = invalidate_sharers(e, h, tile, t);
    e->owner = tile;
    stats_.upgrades++;
    l1.mark_dirty(line_addr, true);
    return t + net(h, tile);
  }
  stats_.l1_misses++;

  // Miss: consult the home slice's directory.
  const int h = home(line_addr);
  const auto hs = static_cast<std::size_t>(h);
  if (h != tile) stats_.remote_requests++;
  double t = start + l1_lat_core_ + net(tile, h);
  stats_.directory_lookups++;
  std::optional<DirEntry> victim;
  DirEntry* e = dir_[hs].get_or_alloc(line_addr, &victim);
  if (victim.has_value()) {
    // Sparse directory pressure: recall every copy of the victim's line
    // before its entry can track ours.
    t = forced_invalidate(*victim, h, t);
  }
  // Register the requester first: with its bit set the entry can never drain
  // to zero sharers (and be erased under us) while the remote owner or the
  // remaining sharers are dropped below.
  const int prior_owner = e->owner;
  add_sharer(e, tile);

  if (prior_owner >= 0 && prior_owner != tile) {
    // A remote Modified copy holds the freshest data: fetch it back to the
    // home slice, then downgrade (read) or invalidate (write) the owner.
    const int o = prior_owner;
    const auto os = static_cast<std::size_t>(o);
    t += 2.0 * net(h, o);
    stats_.writebacks_owner++;
    stats_.l2_writes++;
    const mem::Eviction wb = l2_[hs].insert(line_addr, true);
    if (wb.evicted) handle_l2_eviction(h, wb);
    l2_free_[hs] += l2_interval_;
    if (is_store) {
      stats_.invalidations_sent++;
      const bool present = l1_[os].invalidate(line_addr);
      ADSE_REQUIRE_MSG(present, "owner tile " << o << " does not hold line 0x"
                                              << std::hex << line_addr
                                              << std::dec);
      stats_.invalidation_acks++;
      drop_sharer(e, h, o);
      t += kInvalServiceCoreCycles;
    } else {
      stats_.downgrades++;
      if (inject_ == InjectedBug::kSkipDowngrade && inject_armed_) {
        inject_armed_ = false;  // the owner "misses" the downgrade: stays M
      } else {
        l1_[os].mark_dirty(line_addr, false);  // M -> S, stays a sharer
      }
      e->owner = -1;
    }
  } else if (is_store) {
    // Write miss with (possibly) remote Shared copies: invalidate them all
    // before granting exclusivity.
    t = invalidate_sharers(e, h, tile, t);
  }

  // Data: L2 slice lookup at the home, falling back to the one shared
  // memory controller.
  stats_.l2_reads++;
  double t2 = std::max(t, l2_free_[hs]);
  l2_free_[hs] = t2 + l2_interval_;
  double data_ready;
  if (l2_[hs].access(line_addr, false)) {
    stats_.l2_hits++;
    data_ready = t2 + l2_lat_core_;
  } else {
    stats_.l2_misses++;
    stats_.ram_requests++;
    const double r = std::max(t2 + l2_lat_core_, ram_free_);
    ram_free_ = r + ram_interval_;
    data_ready = r + ram_lat_core_;
    const mem::Eviction ev = l2_[hs].insert(line_addr, false);
    if (ev.evicted) handle_l2_eviction(h, ev);
  }

  // Fill the requester's L1 (M for stores, S for reads); its capacity victim
  // is notified to the victim's own home slice (non-silent replacement).
  const mem::Eviction l1_ev = l1.insert(line_addr, is_store);
  if (l1_ev.evicted) handle_l1_eviction(tile, l1_ev.line_addr, l1_ev.dirty);
  if (is_store) e->owner = tile;

  return data_ready + net(h, tile);
}

mem::AccessResult TiledMemory::access(int tile, std::uint64_t addr,
                                      std::uint32_t size_bytes, bool is_store,
                                      std::uint64_t now) {
  ADSE_REQUIRE_MSG(tile >= 0 && tile < tiles_,
                   "access from invalid tile " << tile << " of " << tiles_);
  ADSE_REQUIRE_MSG(size_bytes > 0, "zero-size memory access");
  const bool checks = CheckContext::enabled();
  if (is_store) {
    stats_.stores++;
  } else {
    stats_.loads++;
  }

  const std::uint64_t mask = ~static_cast<std::uint64_t>(line_bytes_ - 1);
  const std::uint64_t first = addr & mask;
  const std::uint64_t last = (addr + size_bytes - 1) & mask;
  const auto start = static_cast<double>(now);

  mem::AccessResult result;
  double worst_ready = 0.0;
  for (std::uint64_t la = first;; la += line_bytes_) {
    const std::uint64_t hits_before = stats_.l1_hits;
    const std::uint64_t l2_hits_before = stats_.l2_hits;
    const double ready = line_request(tile, la, is_store, start);
    if (ready > worst_ready) {
      worst_ready = ready;
      if (stats_.l1_hits > hits_before) {
        result.worst_level = std::max(result.worst_level, mem::ServedBy::kL1);
      } else if (stats_.l2_hits > l2_hits_before) {
        result.worst_level = std::max(result.worst_level, mem::ServedBy::kL2);
      } else {
        result.worst_level = mem::ServedBy::kRam;
      }
    }
    if (la == last) break;
  }
  result.ready_cycle = static_cast<std::uint64_t>(std::ceil(worst_ready));
  if (checks) {
    ADSE_REQUIRE_MSG(result.ready_cycle >= now,
                     "coherent access ready at " << result.ready_cycle
                                                 << " before issue cycle "
                                                 << now);
    verify_counters("after access");
  }
  return result;
}

void TiledMemory::verify_counters(const char* when) const {
  ADSE_REQUIRE_MSG(stats_.l1_hits + stats_.l1_misses == stats_.line_requests,
                   when << ": L1 accounting broken: " << stats_.l1_hits
                        << " hits + " << stats_.l1_misses << " misses != "
                        << stats_.line_requests << " line requests");
  ADSE_REQUIRE_MSG(stats_.l2_hits + stats_.l2_misses == stats_.l2_reads,
                   when << ": L2 accounting broken: " << stats_.l2_hits
                        << " hits + " << stats_.l2_misses << " misses != "
                        << stats_.l2_reads << " demand lookups");
  // Law 4: every invalidation the directory sent was acknowledged.
  ADSE_REQUIRE_MSG(stats_.invalidations_sent == stats_.invalidation_acks,
                   when << ": invalidation conservation broken: "
                        << stats_.invalidations_sent << " sent != "
                        << stats_.invalidation_acks << " acked");
  // Law 5 (counter half): the epoch counters balance the live population.
  ADSE_REQUIRE_MSG(
      stats_.sharer_adds >= stats_.sharer_drops &&
          stats_.sharer_adds - stats_.sharer_drops == live_sharer_bits_,
      when << ": sharer epoch counters broken: " << stats_.sharer_adds
           << " adds - " << stats_.sharer_drops << " drops != "
           << live_sharer_bits_ << " live sharer bits");
}

void TiledMemory::verify(const char* when) const {
  verify_counters(when);

  // Laws 1-3 + 6, walked from both sides.
  std::uint64_t walked_sharer_bits = 0;
  for (int s = 0; s < tiles_; ++s) {
    const auto ss = static_cast<std::size_t>(s);
    dir_[ss].visit([&](const DirEntry& e) {
      ADSE_REQUIRE_MSG(e.sharers != 0,
                       when << ": directory entry for line 0x" << std::hex
                            << e.line_addr << std::dec << " has no sharers");
      ADSE_REQUIRE_MSG(home(e.line_addr) == s,
                       when << ": line 0x" << std::hex << e.line_addr
                            << std::dec << " tracked at slice " << s
                            << " but homed at " << home(e.line_addr));
      ADSE_REQUIRE_MSG(l2_[ss].contains(e.line_addr),
                       when << ": tracked line 0x" << std::hex << e.line_addr
                            << std::dec << " missing from its home L2 slice "
                            << s << " (inclusivity)");
      if (e.owner >= 0) {
        // Law 2: a Modified owner is the only sharer.
        ADSE_REQUIRE_MSG(e.owner < tiles_ && e.sharers == bit(e.owner),
                         when << ": line 0x" << std::hex << e.line_addr
                              << std::dec << " owned by tile " << e.owner
                              << " but sharer vector is " << e.sharers);
      }
      for (int c = 0; c < tiles_; ++c) {
        if ((e.sharers & bit(c)) == 0) continue;
        walked_sharer_bits++;
        const auto cs = static_cast<std::size_t>(c);
        // Law 3 (directory -> cache): every sharer bit is backed by a copy.
        ADSE_REQUIRE_MSG(l1_[cs].contains(e.line_addr),
                         when << ": directory claims tile " << c
                              << " shares line 0x" << std::hex << e.line_addr
                              << std::dec << " but its L1 does not hold it");
        // Law 1: Modified exactly at the owner, Shared everywhere else.
        ADSE_REQUIRE_MSG(l1_[cs].dirty(e.line_addr) == (e.owner == c),
                         when << ": tile " << c << " holds line 0x" << std::hex
                              << e.line_addr << std::dec
                              << (e.owner == c ? " clean but is the owner"
                                               : " Modified without ownership"));
      }
    });
  }

  // Law 3 (cache -> directory): every resident L1 line is tracked.
  for (int c = 0; c < tiles_; ++c) {
    l1_[static_cast<std::size_t>(c)].visit_lines(
        [&](std::uint64_t line_addr, bool dirty) {
          const DirEntry* e =
              dir_[static_cast<std::size_t>(home(line_addr))].find(line_addr);
          ADSE_REQUIRE_MSG(e != nullptr && (e->sharers & bit(c)) != 0,
                           when << ": tile " << c << " holds line 0x"
                                << std::hex << line_addr << std::dec
                                << " that its home directory does not track");
          ADSE_REQUIRE_MSG(dirty == (e->owner == c),
                           when << ": tile " << c << " L1 dirty bit for 0x"
                                << std::hex << line_addr << std::dec
                                << " disagrees with directory owner "
                                << e->owner);
        });
  }

  // Law 5 (walk half): the live population equals what the walk counted.
  ADSE_REQUIRE_MSG(walked_sharer_bits == live_sharer_bits_,
                   when << ": walked " << walked_sharer_bits
                        << " sharer bits but counters say "
                        << live_sharer_bits_);
}

TiledMemory::L1State TiledMemory::l1_state(int tile, std::uint64_t addr) const {
  const auto& l1 = l1_[static_cast<std::size_t>(tile)];
  if (!l1.contains(addr)) return L1State::kInvalid;
  return l1.dirty(addr) ? L1State::kModified : L1State::kShared;
}

std::uint32_t TiledMemory::directory_sharers(std::uint64_t addr) const {
  const std::uint64_t line =
      addr & ~static_cast<std::uint64_t>(line_bytes_ - 1);
  const DirEntry* e = dir_[static_cast<std::size_t>(home(line))].find(line);
  return e == nullptr ? 0u : e->sharers;
}

int TiledMemory::directory_owner(std::uint64_t addr) const {
  const std::uint64_t line =
      addr & ~static_cast<std::uint64_t>(line_bytes_ - 1);
  const DirEntry* e = dir_[static_cast<std::size_t>(home(line))].find(line);
  return e == nullptr ? -1 : e->owner;
}

std::uint64_t TiledMemory::directory_evictions() const {
  std::uint64_t total = 0;
  for (const auto& d : dir_) total += d.evictions();
  return total;
}

void TiledMemory::reset() {
  for (auto& c : l1_) c.reset();
  for (auto& c : l2_) c.reset();
  for (auto& d : dir_) d.reset();
  std::fill(l1_free_.begin(), l1_free_.end(), 0.0);
  std::fill(l2_free_.begin(), l2_free_.end(), 0.0);
  ram_free_ = 0.0;
  live_sharer_bits_ = 0;
  inject_armed_ = inject_ != InjectedBug::kNone;
  stats_ = CoherenceStats{};
}

}  // namespace adse::coherence
