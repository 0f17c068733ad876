// Flow-level network bandwidth sharing with max-min fairness.
//
// The basic simulator treats an intermediate-result transfer as a fixed
// delay (size × per-GB path delay) — correct when links are uncontended.
// This engine models what a real testbed does instead: concurrent transfers
// crossing the same link share its bandwidth, with rates given by the
// classic max-min fair (progressive-filling) allocation, recomputed whenever
// a flow starts or finishes.
//
// The engine is incremental: a start or completion re-allocates only the
// *connected component* of flows transitively sharing a link with the
// changed flow — untouched components keep their rates (and their armed
// completion events) bit for bit.  Rate computation is a pure function of
// (link capacities, component's flow paths), canonicalized by ascending
// slot order, so `Recompute::kFull` — which re-fills every component — is
// bit-identical to the incremental path and serves as its oracle (pinned by
// tests/sim/flows_test.cpp and the golden rows in
// tests/sim/flows_golden_test.cpp).
//
// The fill is a worklist kernel over component-local arrays (paths as one
// CSR of local link ids) that computes every value with the same
// floating-point operations as the round scan in max_min_rates():
//
//  * shared level — every unfrozen flow has gained the same best_share in
//    every round, so all hold one `level`, accumulated from 0.0 in round
//    order; a flow takes it when it freezes;
//  * sequential subtractions — a live link loses best_share once per
//    unfrozen user, in sequence (`r - u * b` would round differently);
//    each link's share is divided once per round and reused by the
//    saturation test;
//  * monotone min cap — rounding is monotone, so min(cap - level) over
//    unfrozen flows is (min cap) - level, exactly;
//  * link-order independence — every share and headroom in a round is
//    positive and finite, so the round minimum does not depend on link
//    order; a recompute that retired nothing refills the component it
//    gathered first, in that gather's link order;
//  * one epoch per phase D — the split components of one recompute are
//    gathered under one epoch, so a flow's mark says only that some
//    component of this phase holds it; each component's membership is its
//    gathered list, never re-derived from the marks.  A gather lists its
//    members in ascending slot order from a two-level bitset (one bit per
//    slot, one summary bit per 64-slot word) that it clears as it reads,
//    so the listing holds exactly this gather's members and costs
//    O(members + slots / 4096) instead of a sort.
//
// Refilling only the flows on saturated links cannot reproduce these bits:
// a cap-frozen flow's rate is the level of the round its cap binds, which
// depends on every earlier round of the whole component.
//
// Flows live in a slot registry with free-list reuse; paths are moved in,
// never copied.  Each flow carries a generation that bumps on every rate
// change.  The engine runs on either event core:
//
//  * closure mode (EventQueue): every rate change schedules a completion
//    closure stamped with the generation, so a superseded prediction
//    self-discards when it fires — the testbed simulator's mode
//    (sim/simulator.h).
//  * typed mode (TypedEventQueue): each flow slot owns one *armed* entry
//    of the queue (TypedEventQueue::arm), re-armed on every rate change,
//    parked delivery and trivial start, and disarmed on cancel.  No stale
//    prediction is ever queued: pending flow events are bounded by the
//    live flows.  The armed entry pops as EvKind::kTransferDone; the
//    owning run loop feeds it to handle_event(), which returns the
//    caller's tag when the flow is done.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/graph.h"
#include "sim/event.h"
#include "sim/event_kernel.h"

namespace edgerep {

/// Max-min fair rates for `flow_paths` over links with capacities
/// `link_capacity` (GB/s).  A flow with an empty path is unconstrained and
/// gets an infinite rate sentinel (kUnconstrainedRate).  `rate_cap`, when
/// non-empty, is a per-flow ceiling: a flow stops growing once it reaches
/// its cap even if its links have headroom (the online backend caps every
/// transfer at nominal rate 1.0, so uncontended flows finish exactly at
/// their priced delay).  Exposed separately so tests can check the
/// allocation against hand-computed examples.
inline constexpr double kUnconstrainedRate = 1e300;
std::vector<double> max_min_rates(
    const std::vector<double>& link_capacity,
    const std::vector<std::vector<EdgeId>>& flow_paths,
    const std::vector<double>& rate_cap = {});

class FlowEngine {
 public:
  /// Sentinel returned by handle_event for stale or foreign events.
  static constexpr std::uint32_t kNoFlow = static_cast<std::uint32_t>(-1);

  /// Re-allocation scope: `kIncremental` refills only the changed flow's
  /// connected component (production); `kFull` refills every component
  /// (oracle; bit-identical by construction, used by the equivalence tests).
  enum class Recompute : std::uint8_t { kIncremental, kFull };

  /// Observer of every flow rate transition: called when a fill changes a
  /// flow's rate (rate > 0; `bottleneck` is the saturated link that froze
  /// the flow, or kInvalidEdge when its own rate cap did) and once at
  /// retirement (rate == 0, remaining == 0, `time` = the actual completion
  /// instant).  The call sequence is deterministic (ascending slot order
  /// inside each fill) and identical in both modes, so journal appends
  /// driven from here are byte-identical across repeated runs.
  using RateListener = std::function<void(
      std::uint32_t tag, double time, double rate, double remaining,
      EdgeId bottleneck)>;

  /// Closure mode: completions fire the caller's std::function on `eq`.
  /// `link_capacity[e]` is the bandwidth of edge e in GB/s.
  FlowEngine(EventQueue& eq, std::vector<double> link_capacity);

  /// Typed mode: completions surface as kTransferDone events on `queue`.
  FlowEngine(TypedEventQueue& queue, std::vector<double> link_capacity);

  void set_recompute_mode(Recompute mode) noexcept { mode_ = mode; }

  /// Install (or clear, with nullptr) the rate-transition observer.
  void set_rate_listener(RateListener listener) {
    rate_listener_ = std::move(listener);
  }

  /// Begin transferring `size_gb` along `path` (edge ids); `on_complete`
  /// fires at the simulated completion instant.  A flow of size 0 or with
  /// an empty path completes immediately (scheduled at now; returns kNoFlow
  /// — no slot is allocated).  `rate_cap` bounds the flow's rate;
  /// `tag` labels it for the rate listener.  Closure mode only.  Returns
  /// the flow's slot (usable with cancel()).
  std::uint32_t start_flow(double size_gb, std::vector<EdgeId> path,
                           std::function<void()> on_complete,
                           std::uint32_t tag = 0,
                           double rate_cap = kUnconstrainedRate);

  /// Typed-mode start: the completion arrives on the queue as the slot's
  /// armed kTransferDone{a = slot, b = generation}; `tag` is returned by
  /// handle_event when that event is current.  Returns the flow's slot.
  std::uint32_t start_flow(double size_gb, std::vector<EdgeId> path,
                           std::uint32_t tag,
                           double rate_cap = kUnconstrainedRate);

  /// Feed a popped kTransferDone event to the engine.  Returns the starting
  /// call's `tag` when the event is a current completion, kNoFlow when its
  /// generation is not the slot's (the queue never pops such an event, but
  /// a caller may replay one) or it is not a kTransferDone at all.  Typed
  /// mode only.
  [[nodiscard]] std::uint32_t handle_event(const SimEvent& ev);

  /// Abort `slot` without delivering a completion: the flow leaves its
  /// links, its typed-mode entry is disarmed (a closure-mode prediction
  /// goes stale), freed bandwidth is re-filled into the surviving
  /// component(s), and no closure/typed completion ever fires (the rate
  /// listener is not called either — the caller records the kill itself).
  /// A parked (drained, undelivered) slot is freed without delivery.
  /// No-op when the slot is already free.  Both modes.
  void cancel(std::uint32_t slot);

  /// Change one link's capacity mid-run (must stay > 0): flows crossing it
  /// are advanced to now and their component re-filled.  Links without
  /// active flows just take the new value.  Both modes.
  void set_link_capacity(EdgeId e, double capacity);

  [[nodiscard]] double link_capacity(EdgeId e) const {
    return link_capacity_.at(e);
  }

  [[nodiscard]] std::size_t active_flows() const noexcept { return active_; }

 private:
  enum class State : std::uint8_t { kFree, kActive, kCompleting };

  struct Flow {
    double remaining = 0.0;
    double rate = 0.0;
    double cap = kUnconstrainedRate;  ///< per-flow rate ceiling
    double last_advance = 0.0;
    std::vector<EdgeId> path;        ///< moved in; capacity reused on reuse
    std::function<void()> done;      ///< closure mode
    std::uint32_t tag = 0;           ///< typed mode / listener label
    std::uint32_t gen = 0;           ///< bumps on rate change and retire
    State state = State::kFree;
  };

  [[nodiscard]] double now() const noexcept;
  void validate_path(const std::vector<EdgeId>& path) const;
  std::uint32_t alloc_slot();
  void unlink(std::uint32_t slot);

  /// Predicted-completion event for `slot` at its current (rate, gen):
  /// a closure in closure mode, the slot's re-armed entry in typed mode.
  void schedule_completion(std::uint32_t slot);

  /// Deliver a completed flow: closure mode schedules `done` at now and
  /// frees the slot; typed mode parks the slot in kCompleting and re-arms
  /// its entry at now (freed when handle_event consumes it).
  /// `via_event` marks the flow whose own current event is being handled —
  /// it is already delivered, so its slot frees directly.
  void complete_flow(std::uint32_t slot, bool via_event);

  /// Gather the connected component containing `seed` into comp_flows_
  /// (ascending slot order, listed from member_bits_) / comp_links_ (visit
  /// order; link_local_ maps each back to its index).  Gathers are
  /// epoch-marked; membership is only ever read from these lists, never
  /// re-derived from the marks.
  void gather_component(std::uint32_t seed);

  /// Worklist progressive filling over comp_flows_/comp_links_ alone.
  /// Pure function of (link capacities, component paths, caps); flows
  /// whose rate changed bitwise get a new generation + completion event.
  void fill_component();

  /// Advance the seed's component to now, complete drained flows
  /// (`force_complete` = the seed itself finishes regardless of residual;
  /// `silent_seed` = the seed is being cancelled — freed without delivery),
  /// then refill the surviving components — the seed's under kIncremental,
  /// every component under kFull.
  void recompute(std::uint32_t seed, bool force_complete,
                 bool silent_seed = false);

  EventQueue* eq_ = nullptr;          // closure mode
  TypedEventQueue* tq_ = nullptr;     // typed mode
  std::vector<double> link_capacity_;
  Recompute mode_ = Recompute::kIncremental;
  RateListener rate_listener_;

  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_;
  std::vector<std::vector<std::uint32_t>> link_users_;  ///< active flows/link
  std::size_t active_ = 0;

  // --- re-allocation scratch (sized once, epoch-validated) ---------------
  std::uint64_t epoch_ = 0;                ///< component-gather epoch
  std::uint64_t round_ = 0;                ///< fill saturation round stamp
  std::vector<std::uint64_t> flow_mark_;   ///< gather visit marks
  // One gather's members: a bit per slot, plus a summary bit per non-zero
  // word of member_bits_.  Empty between gathers.
  std::vector<std::uint64_t> member_bits_;
  std::vector<std::uint64_t> member_words_;
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint32_t> link_local_;  ///< link → index in comp_links_
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<EdgeId> comp_links_;
  // Fill state, component-local: flows by position in comp_flows_, links
  // by position in comp_links_.  Paths are flattened into one CSR.
  std::vector<std::uint32_t> path_off_;    ///< per comp flow, + end
  std::vector<std::uint32_t> path_link_;   ///< local link ids, path order
  std::vector<double> cap_;                ///< per comp flow
  std::vector<double> fill_rate_;          ///< per comp flow
  std::vector<EdgeId> frozen_edge_;        ///< per comp flow
  std::vector<std::uint32_t> unfrozen_;    ///< comp flows still growing
  std::vector<double> residual_;           ///< per comp link
  std::vector<double> share_;              ///< per comp link, this round
  std::vector<std::uint32_t> users_;       ///< per comp link, unfrozen
  std::vector<std::uint32_t> live_links_;  ///< comp links with users > 0
  std::vector<std::uint32_t> sat_links_;   ///< links saturated this round
  std::vector<std::uint32_t> flow_local_;  ///< slot → index in comp_flows_
  std::vector<std::uint64_t> freeze_mark_;  ///< per comp flow, round stamp
  std::vector<std::uint32_t> retire_buf_;  ///< drained flows per recompute
  std::vector<std::uint32_t> touched_buf_;  ///< phase-A component
};

}  // namespace edgerep
