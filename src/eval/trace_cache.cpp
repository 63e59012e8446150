#include "eval/trace_cache.hpp"

namespace adse::eval {

const core::DecodedTrace& Trace::decoded() const {
  std::call_once(decode_once_, [this] {
    decoded_ = std::make_unique<const core::DecodedTrace>(program_);
    if (decode_counter_ != nullptr) decode_counter_->add(1);
  });
  return *decoded_;
}

const Trace& TraceCache::entry(kernels::App app, int vl) {
  const auto key = std::make_pair(static_cast<int>(app), vl);
  Slot* slot;
  {
    // The map lock only covers slot lookup/creation (cheap); the expensive
    // kernels::build_app runs outside it, gated per key by the once-latch.
    std::lock_guard<std::mutex> lock(mutex_);
    slot = &cache_[key];
  }
  if (slot->built.load(std::memory_order_acquire)) {
    hit_counter_->add(1);
    return slot->trace;
  }
  std::call_once(slot->once, [&] {
    slot->trace.program_ = kernels::build_app(app, vl);
    slot->trace.decode_counter_ = decode_counter_;
    build_counter_->add(1);
    slot->built.store(true, std::memory_order_release);
  });
  return slot->trace;
}

std::size_t TraceCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

}  // namespace adse::eval
