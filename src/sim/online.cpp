#include "sim/online.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/online_internal.h"
#include "util/stats.h"

namespace edgerep {

void OnlineStatusBoard::publish(const OnlineStatus& s) {
  const std::lock_guard<std::mutex> lock(mu_);
  status_ = s;
}

OnlineStatus OnlineStatusBoard::read() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

bool OnlineStatusBoard::due(std::uint64_t min_gap_ns) {
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = last_pub_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < min_gap_ns) return false;
  return last_pub_ns_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed);
}

double OnlineStatusBoard::sim_clock() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.sim_clock;
}

std::size_t OnlineStatusBoard::inflight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.inflight_demands;
}

double OnlineStatusBoard::utilization() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.utilization;
}

bool OnlineStatusBoard::finished() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.finished;
}

void OnlineStatusBoard::write_json(std::ostream& os) const {
  const OnlineStatus s = read();
  const auto old = os.precision(17);
  os << "{\"sim_clock\": ";
  obs::write_json_double(os, s.sim_clock);
  os << ", \"finished\": " << (s.finished ? "true" : "false")
     << ", \"arrivals_seen\": " << s.arrivals_seen
     << ", \"inflight_demands\": " << s.inflight_demands
     << ", \"admitted_queries\": " << s.admitted_queries
     << ", \"rejected_queries\": " << s.rejected_queries
     << ", \"failed_by_fault\": " << s.failed_by_fault
     << ", \"demands_relocated\": " << s.demands_relocated
     << ", \"fault_events_applied\": " << s.fault_events_applied
     << ", \"replicas_lost\": " << s.replicas_lost << ", \"utilization\": ";
  obs::write_json_double(os, s.utilization);
  os << ", \"site_in_use\": [";
  for (std::size_t i = 0; i < s.site_in_use.size(); ++i) {
    if (i > 0) os << ", ";
    obs::write_json_double(os, s.site_in_use[i]);
  }
  os << "], \"site_available\": [";
  for (std::size_t i = 0; i < s.site_available.size(); ++i) {
    if (i > 0) os << ", ";
    obs::write_json_double(os, s.site_available[i]);
  }
  os << "], \"active_flows\": " << s.active_flows
     << ", \"flow_rate_changes\": " << s.flow_rate_changes
     << ", \"flow_late_transfers\": " << s.flow_late_transfers << "}\n";
  os.precision(old);
}

namespace online_detail {
namespace {

double slack_percentile(std::vector<double>& xs, double p) {
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

std::uint64_t sim_ns(double seconds) {
  return seconds <= 0.0
             ? 0
             : static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

}  // namespace

void finalize_online_result(const Instance& inst, const DemandLayout& layout,
                            const std::vector<DemandEnd>& demand_ends,
                            OnlineResult* res) {
  res->admitted_queries = 0;
  for (const OnlineOutcome& o : res->outcomes) {
    if (o.admitted) {
      ++res->admitted_queries;
      res->admitted_volume += inst.demanded_volume(o.query);
    }
  }
  res->throughput = inst.queries().empty()
                        ? 0.0
                        : static_cast<double>(res->admitted_queries) /
                              static_cast<double>(inst.queries().size());

  // Deadline-SLO rollup over the surviving queries.  Slack can go negative
  // only via fault-forced relocation (admission itself is deadline-safe).
  std::vector<double> query_slacks;
  std::vector<std::vector<double>> site_slacks(inst.sites().size());
  std::vector<std::size_t> site_hits(inst.sites().size(), 0);
  query_slacks.reserve(res->admitted_queries);
  for (const OnlineOutcome& o : res->outcomes) {
    if (!o.admitted) continue;
    const Query& q = inst.query(o.query);
    query_slacks.push_back(q.deadline - (o.completion_time - o.arrival_time));
    const std::size_t base = layout.at(o.query, 0);
    for (std::size_t d = 0; d < q.demands.size(); ++d) {
      const DemandEnd& de = demand_ends[base + d];
      if (de.site == kInvalidSite) continue;
      const double slack = q.deadline - (de.completion - o.arrival_time);
      site_slacks[de.site].push_back(slack);
      if (slack >= -1e-9) ++site_hits[de.site];
    }
  }
  res->slo.admitted_queries = res->admitted_queries;
  for (const double s : query_slacks) {
    if (s >= -1e-9) ++res->slo.deadline_hits;
  }
  res->slo.hit_ratio = query_slacks.empty()
                           ? 0.0
                           : static_cast<double>(res->slo.deadline_hits) /
                                 static_cast<double>(query_slacks.size());
  res->slo.p50_slack = slack_percentile(query_slacks, 50.0);
  res->slo.p95_slack = slack_percentile(query_slacks, 5.0);
  res->slo.p99_slack = slack_percentile(query_slacks, 1.0);
  for (std::size_t s = 0; s < site_slacks.size(); ++s) {
    if (site_slacks[s].empty()) continue;
    OnlineSiteSlo slo;
    slo.site = static_cast<SiteId>(s);
    slo.demands = site_slacks[s].size();
    slo.deadline_hits = site_hits[s];
    slo.p50_slack = slack_percentile(site_slacks[s], 50.0);
    slo.p95_slack = slack_percentile(site_slacks[s], 5.0);
    slo.p99_slack = slack_percentile(site_slacks[s], 1.0);
    res->slo.per_site.push_back(slo);
  }
}

std::vector<double> flow_link_capacities(const Graph& g,
                                         double oversubscription) {
  std::vector<double> caps;
  caps.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    caps.push_back(oversubscription == 0.0 ? kContentionFreeCapacity
                                           : e.capacity / oversubscription);
  }
  return caps;
}

void finalize_flow_gap(const Instance& inst,
                       const std::vector<double>& predicted,
                       OnlineResult* res) {
  FlowGapStats& g = res->flow_gap;
  double stretch_sum = 0.0;
  for (const OnlineOutcome& o : res->outcomes) {
    if (!o.admitted) continue;
    const Query& q = inst.query(o.query);
    ++g.queries_compared;
    const double pred_slack =
        q.deadline - (predicted[o.query] - o.arrival_time);
    const double act_slack =
        q.deadline - (o.completion_time - o.arrival_time);
    const bool pred_hit = pred_slack >= -1e-9;
    const bool act_hit = act_slack >= -1e-9;
    if (pred_hit) ++g.predicted_hits;
    if (act_hit) ++g.actual_hits;
    if (pred_hit && !act_hit) ++g.gap_breaches;
    const double stretch = o.completion_time - predicted[o.query];
    g.max_stretch = std::max(g.max_stretch, stretch);
    stretch_sum += stretch;
  }
  g.mean_stretch = g.queries_compared > 0
                       ? stretch_sum / static_cast<double>(g.queries_compared)
                       : 0.0;
}

void emit_online_spans(const std::vector<SpanRec>& spans,
                       const std::vector<SpanRec>& instants) {
  // Async 'b'/'e' pairs (and 'n' instants) on pid 2 — the sim-clock track —
  // so Perfetto shows each query's arrival → transfer → compute →
  // completion lane next to the wall-clock phase spans on pid 1.
  obs::Tracer& tr = obs::tracer();
  for (const SpanRec& sp : spans) {
    if (sp.t1 <= sp.t0) continue;  // killed before it started
    tr.record_async('b', sp.name, sp.id, sim_ns(sp.t0));
    tr.record_async('e', sp.name, sp.id, sim_ns(sp.t1));
  }
  for (const SpanRec& in : instants) {
    tr.record_async('n', in.name, in.id, sim_ns(in.t0));
  }
}

}  // namespace online_detail

OnlineResult run_online(const Instance& inst, const OnlineConfig& cfg,
                        const ReplicaPlan* proactive) {
  if (!inst.finalized()) {
    throw std::invalid_argument("run_online: instance not finalized");
  }
  if (cfg.arrival_rate <= 0.0) {
    throw std::invalid_argument("run_online: arrival rate must be positive");
  }
  if (!(cfg.oversubscription >= 0.0) ||
      !std::isfinite(cfg.oversubscription)) {
    throw std::invalid_argument(
        "run_online: oversubscription must be finite and >= 0");
  }
  if (proactive != nullptr && &proactive->instance() != &inst) {
    throw std::invalid_argument("run_online: proactive plan is for a "
                                "different instance");
  }
  validate_fault_trace(inst, cfg.faults);
  return run_online_typed(inst, cfg, proactive);
}

namespace {

inline void hash_bytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
}
inline void hash_u64(std::uint64_t* h, std::uint64_t v) {
  hash_bytes(h, &v, sizeof v);
}
inline void hash_double(std::uint64_t* h, double v) {
  hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t online_result_hash(const OnlineResult& res) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  hash_u64(&h, res.outcomes.size());
  for (const OnlineOutcome& o : res.outcomes) {
    hash_u64(&h, o.query);
    hash_double(&h, o.arrival_time);
    hash_u64(&h, o.admitted ? 1 : 0);
    hash_double(&h, o.completion_time);
    hash_u64(&h, o.failed_by_fault ? 1 : 0);
  }
  hash_u64(&h, res.admitted_queries);
  hash_double(&h, res.admitted_volume);
  hash_double(&h, res.throughput);
  hash_double(&h, res.peak_utilization);
  hash_u64(&h, res.replica_sites.size());
  for (const auto& v : res.replica_sites) {
    hash_u64(&h, v.size());
    for (const SiteId s : v) hash_u64(&h, s);
  }
  hash_u64(&h, res.fault_events_applied);
  hash_u64(&h, res.queries_failed_by_fault);
  hash_u64(&h, res.demands_relocated);
  hash_u64(&h, res.replicas_lost_to_faults);
  hash_u64(&h, res.slo.admitted_queries);
  hash_u64(&h, res.slo.deadline_hits);
  hash_double(&h, res.slo.hit_ratio);
  hash_double(&h, res.slo.p50_slack);
  hash_double(&h, res.slo.p95_slack);
  hash_double(&h, res.slo.p99_slack);
  hash_u64(&h, res.slo.per_site.size());
  for (const OnlineSiteSlo& s : res.slo.per_site) {
    hash_u64(&h, s.site);
    hash_u64(&h, s.demands);
    hash_u64(&h, s.deadline_hits);
    hash_double(&h, s.p50_slack);
    hash_double(&h, s.p95_slack);
    hash_double(&h, s.p99_slack);
  }
  return h;
}

}  // namespace edgerep
