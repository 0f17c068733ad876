#include "sim/flows.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace edgerep {

std::vector<double> max_min_rates(
    const std::vector<double>& link_capacity,
    const std::vector<std::vector<EdgeId>>& flow_paths,
    const std::vector<double>& rate_cap) {
  const std::size_t num_flows = flow_paths.size();
  std::vector<double> rate(num_flows, 0.0);
  std::vector<char> frozen(num_flows, 0);
  std::vector<double> residual = link_capacity;
  const auto cap_of = [&rate_cap](std::size_t f) {
    return f < rate_cap.size() ? rate_cap[f] : kUnconstrainedRate;
  };
  // Flows per link (only unfrozen ones are counted each round).
  std::size_t remaining = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flow_paths[f].empty()) {
      rate[f] = std::min(kUnconstrainedRate, cap_of(f));
      frozen[f] = 1;
    } else {
      ++remaining;
    }
  }
  // Progressive filling: repeatedly saturate the tightest link.
  while (remaining > 0) {
    // Count unfrozen flows per link and find the minimum fair share.
    double best_share = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> users(link_capacity.size(), 0);
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      for (const EdgeId e : flow_paths[f]) ++users.at(e);
    }
    for (std::size_t e = 0; e < link_capacity.size(); ++e) {
      if (users[e] > 0) {
        best_share = std::min(best_share,
                              residual[e] / static_cast<double>(users[e]));
      }
    }
    // A capped flow's remaining headroom can be the binding constraint of
    // the round.  With the default (unconstrained) cap these comparisons
    // never bind, leaving the allocation bit-identical to the uncapped one.
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      best_share = std::min(best_share, cap_of(f) - rate[f]);
    }
    if (!std::isfinite(best_share)) break;  // defensive; cannot happen
    best_share = std::max(best_share, 0.0);
    // Freeze every unfrozen flow crossing a saturated link at best_share.
    // (All unfrozen flows gain best_share this round; those on bottleneck
    // links — or out of cap headroom — stop growing.)
    std::vector<char> saturated(link_capacity.size(), 0);
    for (std::size_t e = 0; e < link_capacity.size(); ++e) {
      if (users[e] > 0 &&
          residual[e] / static_cast<double>(users[e]) <= best_share + 1e-12) {
        saturated[e] = 1;
      }
    }
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      rate[f] += best_share;
      for (const EdgeId e : flow_paths[f]) residual[e] -= best_share;
      bool stop = false;
      for (const EdgeId e : flow_paths[f]) stop |= saturated[e] == 1;
      stop |= cap_of(f) - rate[f] <= 1e-12;
      if (stop) {
        frozen[f] = 1;
        --remaining;
      }
    }
  }
  return rate;
}

namespace {

void validate_capacities(const std::vector<double>& caps) {
  for (const double c : caps) {
    if (c <= 0.0) {
      throw std::invalid_argument("FlowEngine: link capacity must be > 0");
    }
  }
}

}  // namespace

FlowEngine::FlowEngine(EventQueue& eq, std::vector<double> link_capacity)
    : eq_(&eq), link_capacity_(std::move(link_capacity)) {
  validate_capacities(link_capacity_);
  const std::size_t n = link_capacity_.size();
  link_users_.resize(n);
  link_mark_.resize(n, 0);
  link_local_.resize(n, 0);
}

FlowEngine::FlowEngine(TypedEventQueue& queue,
                       std::vector<double> link_capacity)
    : tq_(&queue), link_capacity_(std::move(link_capacity)) {
  validate_capacities(link_capacity_);
  const std::size_t n = link_capacity_.size();
  link_users_.resize(n);
  link_mark_.resize(n, 0);
  link_local_.resize(n, 0);
}

double FlowEngine::now() const noexcept {
  return eq_ != nullptr ? eq_->now() : tq_->now();
}

void FlowEngine::validate_path(const std::vector<EdgeId>& path) const {
  for (const EdgeId e : path) {
    if (e >= link_capacity_.size()) {
      throw std::invalid_argument("FlowEngine: path edge out of range");
    }
  }
}

std::uint32_t FlowEngine::alloc_slot() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    flow_mark_.push_back(0);
    flow_local_.push_back(0);
    if (slot % 64 == 0) member_bits_.push_back(0);
    if (slot % 4096 == 0) member_words_.push_back(0);
  }
  return slot;
}

void FlowEngine::unlink(std::uint32_t slot) {
  for (const EdgeId e : flows_[slot].path) {
    auto& users = link_users_[e];
    const auto it = std::find(users.begin(), users.end(), slot);
    *it = users.back();
    users.pop_back();
  }
}

void FlowEngine::schedule_completion(std::uint32_t slot) {
  Flow& f = flows_[slot];
  if (f.rate <= 0.0) return;  // starved (cannot happen with >0 capacities)
  const double eta = std::max(f.remaining / f.rate, 0.0);
  if (tq_ != nullptr) {
    tq_->arm(slot, tq_->now() + eta, f.gen);
  } else {
    const std::uint32_t gen = f.gen;
    eq_->schedule_in(eta, [this, slot, gen] {
      const Flow& fl = flows_[slot];
      if (fl.state != State::kActive || fl.gen != gen) return;  // superseded
      recompute(slot, /*force_complete=*/true);
    });
  }
}

void FlowEngine::complete_flow(std::uint32_t slot, bool via_event) {
  Flow& f = flows_[slot];
  if (f.state == State::kActive) --active_;
  f.rate = 0.0;
  f.remaining = 0.0;
  ++f.gen;  // any armed prediction for the old rate goes stale
  // Retirement record: rate 0 at the actual completion instant.
  if (rate_listener_) rate_listener_(f.tag, now(), 0.0, 0.0, kInvalidEdge);
  if (eq_ != nullptr) {
    // Closure mode: deliver via the queue so the callback runs outside the
    // engine frame, and recycle the slot right away.
    f.state = State::kFree;
    free_.push_back(slot);
    if (f.done) eq_->schedule_in(0.0, std::move(f.done));
    f.done = nullptr;
  } else if (via_event) {
    // The flow's own current event is being handled — already delivered.
    f.state = State::kFree;
    free_.push_back(slot);
  } else {
    // Park until the authoritative kTransferDone below is consumed by
    // handle_event (the slot must not be reused before delivery); it
    // replaces the slot's armed prediction.
    f.state = State::kCompleting;
    tq_->arm(slot, tq_->now(), f.gen);
  }
}

void FlowEngine::gather_component(std::uint32_t seed) {
  comp_links_.clear();
  stack_.clear();
  const auto visit = [this](std::uint32_t f) {
    flow_mark_[f] = epoch_;
    member_bits_[f >> 6] |= std::uint64_t{1} << (f & 63);
    member_words_[f >> 12] |= std::uint64_t{1} << ((f >> 6) & 63);
    stack_.push_back(f);
  };
  visit(seed);
  while (!stack_.empty()) {
    const std::uint32_t f = stack_.back();
    stack_.pop_back();
    for (const EdgeId e : flows_[f].path) {
      if (link_mark_[e] == epoch_) continue;
      link_mark_[e] = epoch_;
      link_local_[e] = static_cast<std::uint32_t>(comp_links_.size());
      comp_links_.push_back(e);
      for (const std::uint32_t u : link_users_[e]) {
        if (flow_mark_[u] != epoch_) visit(u);
      }
    }
  }
  // Ascending slot order is the canonical iteration order of every pass
  // over the component (advance, retire, apply) — it makes the fill's
  // output order a pure function of the component's membership.  Listing
  // the member bits in order, and clearing them as they are read, costs
  // O(members + slots / 4096).  Phase D gathers several components under
  // one epoch, so the lists below, not the marks, are the only record of
  // which flows belong to this one.
  comp_flows_.clear();
  for (std::size_t s = 0; s < member_words_.size(); ++s) {
    for (std::uint64_t words = std::exchange(member_words_[s], 0);
         words != 0; words &= words - 1) {
      const std::size_t w = s * 64 + std::countr_zero(words);
      for (std::uint64_t bits = std::exchange(member_bits_[w], 0); bits != 0;
           bits &= bits - 1) {
        comp_flows_.push_back(
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
}

void FlowEngine::fill_component() {
  const std::size_t nf = comp_flows_.size();
  const std::size_t nl = comp_links_.size();
  // Flatten the component: paths as local link ids in one CSR, caps and
  // residual capacities in dense arrays, users counted once.
  path_off_.resize(nf + 1);
  path_link_.clear();
  cap_.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    const Flow& fl = flows_[comp_flows_[i]];
    flow_local_[comp_flows_[i]] = static_cast<std::uint32_t>(i);
    path_off_[i] = static_cast<std::uint32_t>(path_link_.size());
    for (const EdgeId e : fl.path) path_link_.push_back(link_local_[e]);
    cap_[i] = fl.cap;
  }
  path_off_[nf] = static_cast<std::uint32_t>(path_link_.size());
  residual_.resize(nl);
  share_.resize(nl);
  users_.assign(nl, 0);
  for (std::size_t l = 0; l < nl; ++l) {
    residual_[l] = link_capacity_[comp_links_[l]];
  }
  for (const std::uint32_t l : path_link_) ++users_[l];
  // Every component link lies on some component path, so all start live.
  live_links_.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    live_links_[l] = static_cast<std::uint32_t>(l);
  }
  unfrozen_.resize(nf);
  fill_rate_.resize(nf);
  frozen_edge_.assign(nf, kInvalidEdge);
  freeze_mark_.resize(nf, 0);
  double min_cap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < nf; ++i) {
    unfrozen_[i] = static_cast<std::uint32_t>(i);
    min_cap = std::min(min_cap, cap_[i]);
  }
  // Round stamps above fill_start belong to this fill; older ones, left in
  // the reused scratch by earlier fills, read as "not frozen".
  const std::uint64_t fill_start = round_;
  // Progressive filling with the arithmetic of max_min_rates above, done
  // only over what is still live.  Every unfrozen flow has gained the same
  // best_share in every round so far, so its rate is the one shared
  // `level`, accumulated in the same order; a flow takes it when it
  // freezes.  `remaining` (the data left to move) never enters the rates.
  double level = 0.0;
  while (!unfrozen_.empty()) {
    double best_share = std::numeric_limits<double>::infinity();
    for (const std::uint32_t l : live_links_) {
      const double share = residual_[l] / static_cast<double>(users_[l]);
      share_[l] = share;
      best_share = std::min(best_share, share);
    }
    // Per-flow caps bind like virtual private links.  Rounding is
    // monotone, so min over flows of (cap - level) is (min cap) - level
    // exactly.  An unconstrained cap never binds.
    best_share = std::min(best_share, min_cap - level);
    if (!std::isfinite(best_share)) break;  // defensive; cannot happen
    best_share = std::max(best_share, 0.0);
    const std::uint64_t rs = ++round_;
    const double saturated = best_share + 1e-12;
    sat_links_.clear();
    for (const std::uint32_t l : live_links_) {
      if (share_[l] <= saturated) {
        // Every user of a saturated link freezes this round, so the link
        // dies and its residual is never read again.
        sat_links_.push_back(l);
        continue;
      }
      // One subtraction per unfrozen user, in sequence: `r - u * b`
      // would round differently.
      double r = residual_[l];
      for (std::uint32_t k = users_[l]; k > 0; --k) r -= best_share;
      residual_[l] = r;
    }
    level += best_share;
    // Freeze every flow crossing a saturated link (blaming the first one
    // on its path) or out of cap headroom (blaming no link).  No cap binds
    // unless the smallest one does.
    for (const std::uint32_t l : sat_links_) {
      for (const std::uint32_t slot : link_users_[comp_links_[l]]) {
        const std::uint32_t i = flow_local_[slot];
        if (freeze_mark_[i] <= fill_start) freeze_mark_[i] = rs;
      }
    }
    const bool caps_bind = min_cap - level <= 1e-12;
    double next_min_cap = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::uint32_t i : unfrozen_) {
      const bool on_saturated = freeze_mark_[i] == rs;
      if (!on_saturated && !(caps_bind && cap_[i] - level <= 1e-12)) {
        unfrozen_[kept++] = i;
        next_min_cap = std::min(next_min_cap, cap_[i]);
        continue;
      }
      freeze_mark_[i] = rs;
      fill_rate_[i] = level;
      const std::uint32_t* p = path_link_.data() + path_off_[i];
      const std::uint32_t* const end = path_link_.data() + path_off_[i + 1];
      if (on_saturated) {
        // The flow's links are all live, so their shares are this round's.
        const std::uint32_t* q = p;
        while (!(share_[*q] <= saturated)) ++q;
        frozen_edge_[i] = comp_links_[*q];
      }
      for (; p != end; ++p) --users_[*p];
    }
    unfrozen_.resize(kept);
    min_cap = next_min_cap;
    kept = 0;
    for (const std::uint32_t l : live_links_) {
      if (users_[l] > 0) live_links_[kept++] = l;
    }
    live_links_.resize(kept);
  }
  for (const std::uint32_t i : unfrozen_) fill_rate_[i] = level;
  // Apply: only flows whose rate actually changed get a new generation and
  // a new predicted-completion event; unchanged flows keep their armed
  // event — this is what makes kFull bit-identical to kIncremental.
  for (std::size_t i = 0; i < nf; ++i) {
    const std::uint32_t f = comp_flows_[i];
    Flow& fl = flows_[f];
    const double r = fill_rate_[i];
    if (r == fl.rate) continue;
    fl.rate = r;
    ++fl.gen;
    schedule_completion(f);
    if (rate_listener_) {
      rate_listener_(fl.tag, now(), r, fl.remaining, frozen_edge_[i]);
    }
  }
}

void FlowEngine::recompute(std::uint32_t seed, bool force_complete,
                           bool silent_seed) {
  // Phase A: gather the changed flow's connected component.
  ++epoch_;
  gather_component(seed);
  // Phase B: integrate the component's transferred bytes up to now.
  const double t = now();
  for (const std::uint32_t f : comp_flows_) {
    Flow& fl = flows_[f];
    const double dt = t - fl.last_advance;
    if (dt > 0.0) fl.remaining -= dt * fl.rate;
    fl.last_advance = t;
  }
  // Phase C: retire drained flows (ascending slot order, matching the old
  // engine's erase order); the seed of a completion event retires
  // unconditionally — its event is the authoritative completion instant.
  retire_buf_.clear();
  for (const std::uint32_t f : comp_flows_) {
    if ((force_complete && f == seed) || flows_[f].remaining <= 1e-12) {
      retire_buf_.push_back(f);
    }
  }
  if (retire_buf_.empty() && mode_ == Recompute::kIncremental) {
    // Nobody left: the gathered component is still exactly the component
    // to refill (the order of its links changes no value).
    fill_component();
    return;
  }
  touched_buf_.swap(comp_flows_);
  for (const std::uint32_t f : retire_buf_) {
    unlink(f);
    if (silent_seed && f == seed) {
      // Cancelled: free without delivery and without a retirement record.
      Flow& fl = flows_[f];
      if (fl.state == State::kActive) --active_;
      fl.rate = 0.0;
      fl.remaining = 0.0;
      ++fl.gen;  // any closure-mode prediction goes stale
      fl.state = State::kFree;
      fl.done = nullptr;
      free_.push_back(f);
      if (tq_ != nullptr) tq_->disarm(f);
    } else {
      complete_flow(f, force_complete && f == seed && !silent_seed);
    }
  }
  // Phase D: refill the surviving components.  A retirement may have split
  // the gathered component; each true component is gathered and filled
  // separately so rates stay a pure function of component membership.
  ++epoch_;
  if (mode_ == Recompute::kIncremental) {
    for (const std::uint32_t f : touched_buf_) {
      if (flows_[f].state != State::kActive || flow_mark_[f] == epoch_) {
        continue;
      }
      gather_component(f);
      fill_component();
    }
  } else {
    for (std::uint32_t f = 0; f < flows_.size(); ++f) {
      if (flows_[f].state != State::kActive || flow_mark_[f] == epoch_) {
        continue;
      }
      gather_component(f);
      fill_component();
    }
  }
}

std::uint32_t FlowEngine::start_flow(double size_gb, std::vector<EdgeId> path,
                                     std::function<void()> on_complete,
                                     std::uint32_t tag, double rate_cap) {
  if (eq_ == nullptr) {
    throw std::logic_error("FlowEngine: closure start on a typed-mode engine");
  }
  if (rate_cap <= 0.0) {
    throw std::invalid_argument("FlowEngine: rate cap must be > 0");
  }
  validate_path(path);
  if (path.empty() || size_gb <= 1e-12) {
    // Trivial flows complete at now without touching the registry.
    if (on_complete) eq_->schedule_in(0.0, std::move(on_complete));
    return kNoFlow;
  }
  const std::uint32_t slot = alloc_slot();
  Flow& f = flows_[slot];
  f.remaining = size_gb;
  f.rate = 0.0;
  f.cap = rate_cap;
  f.last_advance = now();
  f.path = std::move(path);
  f.done = std::move(on_complete);
  f.tag = tag;
  f.state = State::kActive;
  ++active_;
  for (const EdgeId e : f.path) link_users_[e].push_back(slot);
  recompute(slot, /*force_complete=*/false);
  return slot;
}

std::uint32_t FlowEngine::start_flow(double size_gb, std::vector<EdgeId> path,
                                     std::uint32_t tag, double rate_cap) {
  if (tq_ == nullptr) {
    throw std::logic_error("FlowEngine: typed start on a closure-mode engine");
  }
  if (rate_cap <= 0.0) {
    throw std::invalid_argument("FlowEngine: rate cap must be > 0");
  }
  validate_path(path);
  const std::uint32_t slot = alloc_slot();
  Flow& f = flows_[slot];
  f.tag = tag;
  f.done = nullptr;
  f.cap = rate_cap;
  if (path.empty() || size_gb <= 1e-12) {
    f.remaining = 0.0;
    f.rate = 0.0;
    f.path.clear();
    f.state = State::kCompleting;
    ++f.gen;
    tq_->arm(slot, tq_->now(), f.gen);
    return slot;
  }
  f.remaining = size_gb;
  f.rate = 0.0;
  f.last_advance = now();
  f.path = std::move(path);
  f.state = State::kActive;
  ++active_;
  for (const EdgeId e : f.path) link_users_[e].push_back(slot);
  recompute(slot, /*force_complete=*/false);
  return slot;
}

void FlowEngine::cancel(std::uint32_t slot) {
  if (slot >= flows_.size()) return;
  Flow& f = flows_[slot];
  if (f.state == State::kCompleting) {
    // Drained but undelivered (typed mode only): withdraw the parked
    // delivery and free the slot.
    ++f.gen;
    f.state = State::kFree;
    free_.push_back(slot);
    tq_->disarm(slot);
    return;
  }
  if (f.state != State::kActive) return;
  recompute(slot, /*force_complete=*/true, /*silent_seed=*/true);
}

void FlowEngine::set_link_capacity(EdgeId e, double capacity) {
  if (e >= link_capacity_.size()) {
    throw std::out_of_range("FlowEngine: link out of range");
  }
  if (capacity <= 0.0) {
    throw std::invalid_argument("FlowEngine: link capacity must be > 0");
  }
  link_capacity_[e] = capacity;
  if (link_users_[e].empty()) return;
  // Advance the crossing flows to now under their old rates, then refill
  // their component with the new capacity (drained flows retire normally).
  recompute(link_users_[e].front(), /*force_complete=*/false);
}

std::uint32_t FlowEngine::handle_event(const SimEvent& ev) {
  if (tq_ == nullptr || ev.kind != EvKind::kTransferDone) return kNoFlow;
  const std::uint32_t slot = ev.a;
  if (slot >= flows_.size()) return kNoFlow;
  Flow& f = flows_[slot];
  if (f.state == State::kFree || f.gen != ev.b) return kNoFlow;  // stale
  const std::uint32_t tag = f.tag;
  if (f.state == State::kCompleting) {
    // Parked delivery (threshold-drained or trivial flow): just free.
    ++f.gen;
    f.state = State::kFree;
    free_.push_back(slot);
    return tag;
  }
  recompute(slot, /*force_complete=*/true);
  return tag;
}

}  // namespace edgerep
