#include "sim/event_kernel.h"

namespace edgerep {

namespace {

// 4-ary heap sifts shared by the event heap and the armed heap; `moved`
// is told every entry's new index (the armed heap's key index).
template <class Moved>
void sift_up(std::vector<SimEvent>& h, std::size_t i, Moved moved) {
  const SimEvent ev = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!event_before(ev, h[parent])) break;
    h[i] = h[parent];
    moved(h[i], i);
    i = parent;
  }
  h[i] = ev;
  moved(ev, i);
}

template <class Moved>
void sift_down(std::vector<SimEvent>& h, std::size_t i, Moved moved) {
  const std::size_t n = h.size();
  const SimEvent ev = h[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (event_before(h[c], h[best])) best = c;
    }
    if (!event_before(h[best], ev)) break;
    h[i] = h[best];
    moved(h[i], i);
    i = best;
  }
  h[i] = ev;
  moved(ev, i);
}

void unindexed(const SimEvent&, std::size_t) noexcept {}

}  // namespace

void TypedEventQueue::push(const SimEvent& ev) {
  assert(ev.time >= now_ && "TypedEventQueue: scheduling into the past");
  heap_.push_back(ev);
  sift_up(heap_, heap_.size() - 1, unindexed);
  note_size();
}

void TypedEventQueue::arm(std::uint32_t key, double time, std::uint32_t b) {
  assert(time >= now_ && "TypedEventQueue: arming into the past");
  const SimEvent ev{time, evseq::make(evseq::kDynamicBand, dyn_counter_++),
                    key, b, 0.0, EvKind::kTransferDone};
  if (key >= armed_pos_.size()) armed_pos_.resize(key + 1, kNilSlot);
  std::size_t pos = armed_pos_[key];
  if (pos == kNilSlot) {
    pos = armed_.size();
    armed_.push_back(ev);
  } else {
    armed_[pos] = ev;  // re-arm in place
  }
  place_armed(pos);
  note_size();
}

void TypedEventQueue::disarm(std::uint32_t key) {
  if (key >= armed_pos_.size() || armed_pos_[key] == kNilSlot) return;
  remove_armed(armed_pos_[key]);
}

void TypedEventQueue::remove_armed(std::size_t pos) {
  armed_pos_[armed_[pos].a] = kNilSlot;
  armed_[pos] = armed_.back();
  armed_.pop_back();
  if (pos < armed_.size()) place_armed(pos);
}

void TypedEventQueue::place_armed(std::size_t pos) {
  const auto index = [this](const SimEvent& e, std::size_t i) {
    armed_pos_[e.a] = static_cast<std::uint32_t>(i);
  };
  if (pos > 0 && event_before(armed_[pos], armed_[(pos - 1) >> 2])) {
    sift_up(armed_, pos, index);
  } else {
    sift_down(armed_, pos, index);
  }
}

void TypedEventQueue::post(const SimEvent& ev) {
  ring_.push_back(ev);
  const std::size_t occupied = ring_.size() - ring_head_;
  if (occupied > peak_ring_) peak_ring_ = occupied;
  note_size();
}

bool TypedEventQueue::pop_immediate(SimEvent* out) {
  if (ring_head_ == ring_.size()) return false;
  *out = ring_[ring_head_++];
  out->time = now_;  // immediates run at the current instant
  if (ring_head_ == ring_.size()) {
    ring_.clear();
    ring_head_ = 0;
  }
  ++popped_;
  return true;
}

bool TypedEventQueue::pop(SimEvent* out) {
  if (pop_immediate(out)) return true;
  if (!armed_.empty() &&
      (heap_.empty() || event_before(armed_.front(), heap_.front()))) {
    *out = armed_.front();
    remove_armed(0);
  } else if (!heap_.empty()) {
    *out = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(heap_, 0, unindexed);
  } else {
    return false;
  }
  now_ = out->time;
  ++popped_;
  return true;
}

FlightHandle FlightSlab::create() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Flight& f = slots_[slot];
  f.live = true;
  f.birth = births_++;
  f.prev = tail_;
  f.next = kNilSlot;
  f.span_transfer = kNilSlot;
  f.span_compute = kNilSlot;
  if (tail_ != kNilSlot) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return FlightHandle{slot, f.gen};
}

void FlightSlab::destroy(FlightHandle h) {
  Flight* f = get(h);
  assert(f != nullptr && "FlightSlab: destroying a stale handle");
  if (f == nullptr) return;
  if (f->prev != kNilSlot) {
    slots_[f->prev].next = f->next;
  } else {
    head_ = f->next;
  }
  if (f->next != kNilSlot) {
    slots_[f->next].prev = f->prev;
  } else {
    tail_ = f->prev;
  }
  f->live = false;
  ++f->gen;  // every outstanding handle to this slot is now stale
  --live_;
  free_.push_back(h.slot);
}

}  // namespace edgerep
