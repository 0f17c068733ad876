// Internals of run_online that are not the event loop itself
// (online_typed.cpp): demand addressing, the arrival process, post-run
// aggregation, flow-backend capacities and span output.  Not part of the
// public API (not exported through edgerep/edgerep.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "cloud/instance.h"
#include "sim/online.h"
#include "util/rng.h"

namespace edgerep {
namespace online_detail {

struct SiteLoad {
  double available = 0.0;  ///< fault-free A(v_l); faults scale it on query
  double in_use = 0.0;
};

/// Where (and when, absolute sim seconds) one admitted demand finally
/// completed — relocation overwrites it.  Feeds the deadline-SLO rollup.
struct DemandEnd {
  SiteId site = kInvalidSite;
  double completion = 0.0;
};

/// One async span on the sim clock, buffered locally and emitted to the
/// Tracer after the run (so tracing never interleaves with event dispatch).
struct SpanRec {
  const char* name = "";
  std::uint64_t id = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// Stable async-span ids: a query's span and its per-demand
/// transfer/compute spans share the qid prefix so they group in the viewer.
inline std::uint64_t query_span_id(QueryId m) {
  return static_cast<std::uint64_t>(m) << 20;
}
inline std::uint64_t demand_span_id(QueryId m, std::uint32_t d,
                                    unsigned kind) {
  return (static_cast<std::uint64_t>(m) << 20) |
         (static_cast<std::uint64_t>(d + 1) << 2) | kind;
}

/// Flat per-(query, demand) addressing: slot of (m, d) is
/// `offsets[m] + d` — one contiguous table, sized once.
struct DemandLayout {
  std::vector<std::size_t> offsets;  ///< size |Q| + 1 (prefix sums)

  explicit DemandLayout(const Instance& inst) {
    offsets.resize(inst.queries().size() + 1, 0);
    for (const Query& q : inst.queries()) {
      offsets[q.id + 1] = q.demands.size();
    }
    for (std::size_t m = 1; m < offsets.size(); ++m) {
      offsets[m] += offsets[m - 1];
    }
  }
  [[nodiscard]] std::size_t at(QueryId m, std::uint32_t d) const {
    return offsets[m] + d;
  }
  [[nodiscard]] std::size_t total() const { return offsets.back(); }
};

/// The arrival process, streamed one arrival at a time: the kernel pulls
/// lazily, so only the next arrival sits in the heap.  Draws come from one
/// Rng in instance order, so a fixed seed gives identical times bit for
/// bit however the kernel interleaves them with other events.
class OnlineArrivalStream {
 public:
  OnlineArrivalStream(std::size_t queries, OnlineConfig::Arrivals mode,
                      double rate, std::uint64_t seed,
                      double wave_amplitude = 0.0, double wave_period = 0.0)
      : rng_(seed),
        remaining_(queries),
        rate_(rate),
        wave_amplitude_(wave_amplitude),
        wave_period_(wave_period),
        mode_(mode) {}

  /// Next arrival in instance order; false when the horizon is exhausted.
  bool next(double* time, QueryId* query) {
    if (remaining_ == 0) return false;
    double gap = mode_ == OnlineConfig::Arrivals::kPoisson
                     ? rng_.exponential(rate_)
                     : 1.0 / rate_;
    // Diurnal wave: divide the base gap by the instantaneous rate
    // modulation at the current phase.  The Rng draw sequence is identical
    // either way, and the branch is skipped entirely when the wave is off,
    // so amplitude == 0 reproduces historical arrival times bit for bit.
    if (wave_amplitude_ > 0.0 && wave_period_ > 0.0) {
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      double mod =
          1.0 + wave_amplitude_ * std::sin(kTwoPi * clock_ / wave_period_);
      if (mod < 0.05) mod = 0.05;
      gap /= mod;
    }
    clock_ += gap;
    *time = clock_;
    *query = next_id_++;
    --remaining_;
    return true;
  }

 private:
  Rng rng_;
  double clock_ = 0.0;
  QueryId next_id_ = 0;
  std::size_t remaining_;
  double rate_;
  double wave_amplitude_;
  double wave_period_;
  OnlineConfig::Arrivals mode_;
};

/// Post-run aggregation: exact admitted recount, throughput, and the
/// deadline-SLO rollup over the flat demand-end table.  Pure function of
/// its inputs.
void finalize_online_result(const Instance& inst, const DemandLayout& layout,
                            const std::vector<DemandEnd>& demand_ends,
                            OnlineResult* res);

/// Utilization as published to the gauge and the status board:
/// in_use / total, clamped at 0.  The ±need sequence on `in_use` can drift
/// a few ulps below zero once every demand has retired; the clamp touches
/// only the published view, never `in_use` or peak_utilization.
inline double published_utilization(double in_use, double total) {
  return total > 0.0 ? std::max(0.0, in_use / total) : 0.0;
}

/// Effective link capacity of the flow backend in the contention-free
/// limit (OnlineConfig::oversubscription == 0).  Large enough that no link
/// ever binds (every transfer is capped at nominal rate 1.0), small enough
/// that capacity arithmetic stays finite.
inline constexpr double kContentionFreeCapacity = 1e18;

/// Per-edge effective capacities for the flow backend:
/// `edge.capacity / oversubscription`, or kContentionFreeCapacity for every
/// edge when oversubscription == 0.
std::vector<double> flow_link_capacities(const Graph& g,
                                         double oversubscription);

/// Predicted-vs-actual gap rollup of the flow backend.  `predicted` holds
/// the table-priced completion per query (what
/// OnlineOutcome::completion_time would be on a kTable run); the actuals
/// are read from res->outcomes.  Fills every FlowGapStats field
/// except flows_routed / rate_changes, which the run accumulates live.
void finalize_flow_gap(const Instance& inst,
                       const std::vector<double>& predicted,
                       OnlineResult* res);

/// Emit the buffered span timeline as async 'b'/'e' pairs (and 'n'
/// instants) on the sim-clock trace track.  Call only when the trace facet
/// is on.
void emit_online_spans(const std::vector<SpanRec>& spans,
                       const std::vector<SpanRec>& instants);

}  // namespace online_detail

/// The event loop (online_typed.cpp); run_online validates its inputs and
/// calls it.
OnlineResult run_online_typed(const Instance& inst, const OnlineConfig& cfg,
                              const ReplicaPlan* proactive);

}  // namespace edgerep
