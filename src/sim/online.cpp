#include "sim/online.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "cloud/delay.h"
#include "net/routes.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sim/event.h"
#include "sim/flows.h"
#include "sim/online_internal.h"
#include "util/rng.h"
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

namespace {

using online_detail::DemandEnd;
using online_detail::DemandLayout;
using online_detail::demand_span_id;
using online_detail::kNoSpan;
using online_detail::OnlineArrivalStream;
using online_detail::published_utilization;
using online_detail::query_span_id;
using online_detail::SiteLoad;
using online_detail::SpanRec;

/// One admitted demand currently holding resource at a site.  Flights are
/// append-only; `alive` flips when the work completes or a fault kills it,
/// so a stale completion event is a no-op instead of a double-credit.
struct Inflight {
  QueryId query = 0;
  std::uint32_t demand = 0;
  SiteId site = kInvalidSite;
  double need = 0.0;
  bool alive = false;
};

/// The original closure-based engine, kept as the bit-identity oracle for
/// the typed kernel (OnlineKernel::kClosure): one std::function per event,
/// whole horizon pre-scheduled, grow-only flight vector.
OnlineResult run_online_closure(const Instance& inst, const OnlineConfig& cfg,
                                const ReplicaPlan* proactive) {
  EventQueue eq;
  FaultState faults(inst);

  // Telemetry facets, sampled once so a mid-run toggle cannot tear the run.
  // None of them feeds back into a decision: the simulation is bit-identical
  // with every facet on or off (pinned by obs_equivalence_test).
  const bool metrics_on = obs::metrics_enabled();
  const bool trace_on = obs::trace_enabled();
  const bool audit_on = obs::audit_enabled();
  // Flight recorder, mirrored append-for-append with the typed kernel so a
  // fixed config journals byte-identically on either engine.
  const bool rec_on = obs::recorder_enabled();
  obs::Recorder* const rec = rec_on ? &obs::recorder() : nullptr;
  // Watchdog (5th facet), sampled once like the recorder.  Feeds sit at
  // the recorder's mirrored append sites and carry only sim-clock times and
  // stable ids, so the alert stream is byte-identical across kernels.
  const bool wd_on = obs::watchdog_enabled();
  obs::Watchdog* const wd = wd_on ? &obs::watchdog() : nullptr;
  if (wd != nullptr) wd->begin_run();
  OnlineStatusBoard* board = cfg.status_board;
  std::vector<obs::AuditEntry> audit_entries;

  // Arrival-path counters, resolved once: the per-arrival cost is a null
  // check and two striped increments, not three registry guard loads.
  obs::Counter* c_arrivals = nullptr;
  obs::Counter* c_admitted = nullptr;
  obs::Counter* c_rejected = nullptr;
  if (metrics_on) {
    c_arrivals = &obs::metrics().counter("edgerep_online_arrivals_total",
                                         "query arrivals seen");
    c_admitted =
        &obs::metrics().counter("edgerep_online_queries_admitted_total",
                                "queries admitted on arrival");
    c_rejected =
        &obs::metrics().counter("edgerep_online_queries_rejected_total",
                                "queries rejected on arrival");
  }

  OnlineResult res;
  res.kernel_stats.kernel = OnlineKernel::kClosure;
  res.replica_sites.resize(inst.datasets().size());
  if (proactive != nullptr) {
    for (const Dataset& d : inst.datasets()) {
      res.replica_sites[d.id] = proactive->replica_sites(d.id);
    }
  } else if (cfg.origin_counts_as_replica) {
    for (const Dataset& d : inst.datasets()) {
      if (d.origin != kInvalidSite) {
        res.replica_sites[d.id].push_back(d.origin);
      }
    }
  }

  std::vector<SiteLoad> sites(inst.sites().size());
  double total_available = 0.0;
  for (const Site& s : inst.sites()) {
    sites[s.id].available = s.available;
    total_available += s.available;
  }

  std::vector<Inflight> flights;
  std::vector<std::vector<std::size_t>> by_site(sites.size());
  std::vector<std::vector<std::size_t>> by_query(inst.queries().size());
  // Running aggregates for the status board; maintained unconditionally
  // (two additions per launch/retire) so the board never perturbs the run.
  std::size_t inflight_count = 0;
  double in_use_total = 0.0;
  std::size_t arrivals_seen = 0;
  std::size_t rejected_queries = 0;

  // Deadline-SLO bookkeeping: final serving site + absolute completion per
  // admitted demand (relocation overwrites), in one flat table.
  const DemandLayout layout(inst);
  std::vector<DemandEnd> demand_ends(layout.total());

  // Flow backend (cfg.network == kFlow): every admitted transfer is replayed
  // as a rate-capped flow over its shortest path, and the contention-
  // stretched completion overwrites (via max) the table-predicted one in
  // demand_ends / outcomes.  Admission pricing stays on the delay table.
  const bool flow_on = cfg.network == OnlineNetwork::kFlow;
  std::unique_ptr<FlowEngine> flow;
  RouteTable routes;
  std::vector<double> flow_base_caps;   // effective capacity per edge
  std::vector<QueryId> slot_query;      // layout slot -> owning query
  std::vector<std::uint32_t> qd_flow;   // layout slot -> live flow slot
  std::vector<std::uint32_t> qd_bottleneck;  // slot -> last bottleneck edge
  std::vector<EdgeId> route_buf;
  std::vector<double> flow_predicted;   // per query, table-priced completion
  std::size_t flow_late = 0;            // deliveries after predicted time
  if (flow_on) {
    flow_base_caps = online_detail::flow_link_capacities(
        inst.graph(), cfg.oversubscription);
    flow = std::make_unique<FlowEngine>(eq, flow_base_caps);
    std::vector<NodeId> site_nodes;
    site_nodes.reserve(inst.sites().size());
    for (const Site& s : inst.sites()) site_nodes.push_back(s.node);
    routes = RouteTable::compute(inst.graph(), site_nodes);
    slot_query.resize(layout.total());
    for (const Query& q : inst.queries()) {
      for (std::uint32_t d = 0; d < q.demands.size(); ++d) {
        slot_query[layout.at(q.id, d)] = q.id;
      }
    }
    qd_flow.assign(layout.total(), FlowEngine::kNoFlow);
    if (wd != nullptr) qd_bottleneck.assign(layout.total(), obs::kNoAlertLink);
    flow_predicted.resize(inst.queries().size(), 0.0);
    flow->set_rate_listener([&](std::uint32_t tag, double t, double rate,
                                double remaining, EdgeId bottleneck) {
      if (rate > 0.0) ++res.flow_gap.rate_changes;
      if (wd != nullptr && rate > 0.0) {
        // Mirror the postmortem's bottleneck attribution: the last rate
        // transition names the link to blame at retirement.
        qd_bottleneck[tag] = static_cast<std::uint32_t>(bottleneck);
      }
      if (rec_on) {
        obs::JournalRecord r;
        r.time = t;
        r.v0 = rate;
        r.v1 = remaining;
        r.a = tag;
        r.b = static_cast<std::uint32_t>(bottleneck);
        r.site = obs::kNoSite;
        r.kind = static_cast<std::uint8_t>(obs::RecordKind::kFlowRateChange);
        r.arg = rate > 0.0 ? 0 : 1;  // 1 = retirement at actual completion
        rec->append(r);
      }
    });
  }

  // Span timelines (trace facet): buffered locally, emitted after the run.
  std::vector<SpanRec> spans;
  std::vector<SpanRec> instants;  // t0 only; 'n' events (crash / relocate)
  std::vector<std::size_t> query_span(inst.queries().size(), kNoSpan);
  std::vector<std::array<std::size_t, 2>> flight_spans;  // [transfer, compute]

  auto has_replica = [&](DatasetId n, SiteId l) {
    const auto& v = res.replica_sites[n];
    return std::find(v.begin(), v.end(), l) != v.end();
  };

  // O(1): in_use_total is already maintained incrementally by every
  // launch/retire, so the peak never needs a sum over sites.  The typed
  // kernel applies the identical ±need sequence, so the quotient is
  // bit-identical across kernels.
  auto track_peak = [&] {
    if (total_available <= 0.0) return;
    res.peak_utilization =
        std::max(res.peak_utilization, in_use_total / total_available);
  };

  /// Publish a throttled snapshot to the status board and refresh the live
  /// gauges.  Reads sim state, never writes it.  Gauges and snapshots are
  /// point-in-time views, so both ride the same two-stage throttle: a
  /// branch-and-mask event pre-gate (every event), then a ~2 ms wall-clock
  /// floor (every 32nd event) — scrapers see fresh-enough data and the
  /// event loop never reads a clock or builds vectors per event.
  std::uint32_t status_tick = 0;
  auto push_status = [&](bool force) {
    if (!metrics_on && board == nullptr) return;
    if (!force) {
      if ((++status_tick & 31u) != 0) return;
      if (board != nullptr && !board->due(2'000'000)) return;
    }
    if (metrics_on) {
      static obs::Gauge& g_inflight = obs::metrics().gauge(
          "edgerep_online_inflight", "demands currently holding resource");
      static obs::Gauge& g_clock = obs::metrics().gauge(
          "edgerep_online_sim_clock_seconds", "simulated seconds elapsed");
      static obs::Gauge& g_util = obs::metrics().gauge(
          "edgerep_online_utilization",
          "in-use GHz over fault-free total GHz");
      g_inflight.set(static_cast<double>(inflight_count));
      g_clock.set(eq.now());
      g_util.set(published_utilization(in_use_total, total_available));
      if (flow_on) {
        static obs::Gauge& g_flows = obs::metrics().gauge(
            "edgerep_online_active_flows",
            "flow backend: transfers currently in flight");
        static obs::Gauge& g_ratech = obs::metrics().gauge(
            "edgerep_online_flow_rate_changes",
            "flow backend: max-min re-fill rate transitions");
        static obs::Gauge& g_late = obs::metrics().gauge(
            "edgerep_online_flow_late_transfers",
            "flow backend: deliveries after their table-predicted time");
        g_flows.set(static_cast<double>(flow->active_flows()));
        g_ratech.set(static_cast<double>(res.flow_gap.rate_changes));
        g_late.set(static_cast<double>(flow_late));
      }
    }
    if (board == nullptr) return;
    OnlineStatus st;
    st.sim_clock = eq.now();
    st.arrivals_seen = arrivals_seen;
    st.inflight_demands = inflight_count;
    st.admitted_queries = res.admitted_queries;
    st.rejected_queries = rejected_queries;
    st.failed_by_fault = res.queries_failed_by_fault;
    st.demands_relocated = res.demands_relocated;
    st.fault_events_applied = res.fault_events_applied;
    st.replicas_lost = res.replicas_lost_to_faults;
    st.utilization = published_utilization(in_use_total, total_available);
    st.site_in_use.reserve(sites.size());
    st.site_available.reserve(sites.size());
    for (const Site& s : inst.sites()) {
      st.site_in_use.push_back(sites[s.id].in_use);
      st.site_available.push_back(faults.available(s.id));
    }
    st.active_flows = flow_on ? flow->active_flows() : 0;
    st.flow_rate_changes = res.flow_gap.rate_changes;
    st.flow_late_transfers = flow_late;
    st.finished = force && arrivals_seen == inst.queries().size();
    board->publish(st);
  };

  /// Abort the live flow of one (query, demand) slot, if any — kill paths
  /// and relocation call this; the table prediction in demand_ends stands.
  auto cancel_transfer = [&](std::size_t ls) {
    if (!flow_on || qd_flow[ls] == FlowEngine::kNoFlow) return;
    flow->cancel(qd_flow[ls]);
    qd_flow[ls] = FlowEngine::kNoFlow;
  };

  /// A flow finished: overwrite the table-predicted completion with the
  /// flow-simulated actual.  Monotone (max), so the contention-free limit —
  /// where the actual equals the prediction bit for bit — changes nothing.
  auto deliver_transfer = [&](std::size_t ls, double t) {
    qd_flow[ls] = FlowEngine::kNoFlow;
    DemandEnd& de = demand_ends[ls];
    if (t > de.completion + 1e-9) ++flow_late;
    if (wd != nullptr) {
      const OnlineOutcome& prev = res.outcomes[slot_query[ls]];
      wd->on_flow_retire(t, qd_bottleneck[ls], t - de.completion);
      wd->on_completion(t,
                        inst.query(slot_query[ls]).deadline -
                            (std::max(prev.completion_time, t) -
                             prev.arrival_time),
                        false);
    }
    de.completion = std::max(de.completion, t);
    OnlineOutcome& o = res.outcomes[slot_query[ls]];
    o.completion_time = std::max(o.completion_time, t);
    push_status(false);
  };

  /// Route one admitted transfer as a flow: full evaluation delay as the
  /// flow size, nominal rate capped at 1.0 (so an uncontended flow finishes
  /// exactly at the priced delay), path = shortest route from the
  /// evaluation site to the query home.  Local evaluations (empty route)
  /// and zero-work transfers are not flows — the prediction stands.
  auto start_transfer = [&](QueryId m, std::uint32_t demand, SiteId site,
                            double total) {
    if (!flow_on) return;
    const std::size_t ls = layout.at(m, demand);
    cancel_transfer(ls);
    if (total <= 0.0) return;
    const NodeId home = inst.site(inst.query(m).home).node;
    if (!routes.edge_path(inst.graph(), site, home, route_buf) ||
        route_buf.empty()) {
      return;
    }
    const std::uint32_t slot = flow->start_flow(
        total, std::vector<EdgeId>(route_buf.begin(), route_buf.end()),
        [&, ls] { deliver_transfer(ls, eq.now()); },
        static_cast<std::uint32_t>(ls), /*rate_cap=*/1.0);
    if (slot != FlowEngine::kNoFlow) {
      qd_flow[ls] = slot;
      ++res.flow_gap.flows_routed;
    }
  };

  /// Capacity faults steal NIC bandwidth along with compute: scale every
  /// link incident to the struck site's node by the remaining compute
  /// fraction (clamped away from zero so flows keep progressing).  Site
  /// crashes do not touch links (the co-located switch survives), and link
  /// up/down events shape routing of future admissions only — in-flight
  /// transfers are not re-simulated (see the contract in sim/online.h).
  auto update_flow_links = [&](SiteId s) {
    if (!flow_on) return;
    const double scale = std::max(faults.capacity_scale(s), 1e-6);
    for (const HalfEdge& he : inst.graph().neighbors(inst.site(s).node)) {
      flow->set_link_capacity(he.edge, flow_base_caps[he.edge] * scale);
    }
  };

  /// Truncate a killed flight's spans at the kill instant (a demand span
  /// that never started is dropped at emission: t1 ≤ t0).
  auto truncate_flight_spans = [&](std::size_t idx) {
    if (!trace_on) return;
    for (const std::size_t si : flight_spans[idx]) {
      if (si == kNoSpan) continue;
      spans[si].t0 = std::min(spans[si].t0, eq.now());
      spans[si].t1 = std::min(spans[si].t1, eq.now());
    }
  };

  /// Release a flight's resource (idempotent).  The slot's flow, if still
  /// in the air, is silently aborted — a killed demand delivers nothing.
  auto kill_flight = [&](std::size_t idx) {
    Inflight& f = flights[idx];
    if (!f.alive) return;
    f.alive = false;
    sites[f.site].in_use -= f.need;
    --inflight_count;
    in_use_total -= f.need;
    cancel_transfer(layout.at(f.query, f.demand));
    truncate_flight_spans(idx);
  };

  /// Register a new flight at `site` and schedule its completion.  `total`
  /// is the full evaluation delay (transfer + processing) for the span
  /// timeline; resource is held for the processing window `proc` only.
  auto launch_flight = [&](QueryId m, std::uint32_t demand, SiteId site,
                           double need, double proc, double total) {
    const std::size_t idx = flights.size();
    flights.push_back({m, demand, site, need, true});
    flight_spans.push_back({kNoSpan, kNoSpan});
    if (trace_on) {
      const double t0 = eq.now();
      const double t_mid = t0 + std::max(0.0, total - proc);
      flight_spans[idx][0] = spans.size();
      spans.push_back({"online.transfer", demand_span_id(m, demand, 1), t0,
                       t_mid});
      flight_spans[idx][1] = spans.size();
      spans.push_back({"online.compute", demand_span_id(m, demand, 2), t_mid,
                       t0 + total});
    }
    by_site[site].push_back(idx);
    by_query[m].push_back(idx);
    sites[site].in_use += need;
    ++inflight_count;
    if (inflight_count > res.kernel_stats.peak_flights) {
      res.kernel_stats.peak_flights = inflight_count;
    }
    in_use_total += need;
    eq.schedule_in(proc, [&, idx] {
      Inflight& f = flights[idx];
      if (!f.alive) return;
      if (rec_on) {
        obs::JournalRecord r;
        r.time = eq.now();
        r.a = f.query;
        r.site = f.site;
        r.kind = static_cast<std::uint8_t>(obs::RecordKind::kComputeDone);
        r.arg = static_cast<std::uint8_t>(f.demand);
        rec->append(r);
      }
      f.alive = false;
      sites[f.site].in_use -= f.need;
      --inflight_count;
      in_use_total -= f.need;
      if (wd != nullptr) {
        const double eff = faults.available(f.site);
        wd->on_site_util(eq.now(), f.site,
                         eff > 0.0 ? sites[f.site].in_use / eff : 1.0);
      }
      push_status(false);
    });
  };

  // Journal append for a launched flight (admission or fault relocation).
  auto record_flight = [&](obs::RecordKind kind, QueryId m,
                           std::uint32_t demand, SiteId site, DatasetId n,
                           double total, double proc) {
    obs::JournalRecord r;
    r.time = eq.now();
    r.v0 = total;
    r.v1 = proc;
    r.a = m;
    r.b = n;
    r.site = site;
    r.kind = static_cast<std::uint8_t>(kind);
    r.arg = static_cast<std::uint8_t>(demand);
    r.flags = inst.site(site).is_data_center() ? 1u : 0u;
    rec->append(r);
  };

  /// An admitted query lost a demand it could not recover: kill its other
  /// flights (a query only counts when every demand completes) and flip the
  /// outcome.
  auto fail_query = [&](QueryId m) {
    if (res.outcomes[m].failed_by_fault) return;
    if (rec_on) {
      obs::JournalRecord r;
      r.time = eq.now();
      r.a = m;
      r.site = obs::kNoSite;
      r.kind = static_cast<std::uint8_t>(obs::RecordKind::kFail);
      rec->append(r);
    }
    if (wd != nullptr) wd->on_completion(eq.now(), -1.0, true);
    for (const std::size_t idx : by_query[m]) kill_flight(idx);
    if (flow_on) {
      // Demands whose compute already finished may still be shipping their
      // result; a failed query delivers nothing, so abort every slot.
      const std::size_t base = layout.at(m, 0);
      const std::size_t count = inst.query(m).demands.size();
      for (std::size_t d = 0; d < count; ++d) cancel_transfer(base + d);
    }
    // Keep the provisional live count honest; the exact count is recomputed
    // from outcomes after eq.run().
    if (res.outcomes[m].admitted && res.admitted_queries > 0) {
      --res.admitted_queries;
    }
    res.outcomes[m].admitted = false;
    res.outcomes[m].failed_by_fault = true;
    ++res.queries_failed_by_fault;
    if (trace_on) {
      if (query_span[m] != kNoSpan) {
        spans[query_span[m]].t1 =
            std::min(spans[query_span[m]].t1, eq.now());
      }
      instants.push_back({"online.crash", query_span_id(m), eq.now(), 0.0});
    }
    if (metrics_on) {
      static obs::Counter& failed = obs::metrics().counter(
          "edgerep_online_queries_failed_by_fault_total",
          "admitted queries killed mid-flight by an injected fault");
      failed.inc();
    }
    if (audit_on) {
      const Query& q = inst.query(m);
      obs::AuditEntry e;
      e.algorithm = "online";
      e.query = m;
      e.dataset = q.demands.empty() ? 0 : q.demands.front().dataset;
      e.admitted = false;
      e.reason = obs::AuditReason::kFaultEvicted;
      audit_entries.push_back(e);
    }
  };

  /// Pick the least-relatively-filled surviving site able to serve one
  /// demand right now (same scarcity rule as admission).  Returns
  /// kInvalidSite when none fits.
  auto best_site_for = [&](const Query& q, const DatasetDemand& dd,
                           double need, bool* new_replica) {
    SiteId best = kInvalidSite;
    double best_fill = 0.0;
    for (const Site& s : inst.sites()) {
      if (!faults.site_up(s.id)) continue;
      const bool replica_here = has_replica(dd.dataset, s.id);
      if (!replica_here) {
        if (!cfg.reactive_replicas) continue;
        if (res.replica_sites[dd.dataset].size() >= inst.max_replicas()) {
          continue;
        }
      }
      if (!faults.deadline_ok(q, dd, s.id)) continue;
      const double eff = faults.available(s.id);
      const double load = sites[s.id].in_use;
      if (load + need > eff + 1e-9) continue;
      const double fill = eff > 0.0 ? (load + need) / eff : 1e18;
      if (best == kInvalidSite || fill < best_fill) {
        best = s.id;
        *new_replica = !replica_here;
        best_fill = fill;
      }
    }
    return best;
  };

  /// Re-seat one displaced (dead) flight on a surviving site.  The work
  /// restarts from scratch at the new site (the partial result died with
  /// the old one).
  auto relocate = [&](std::size_t idx) {
    const Inflight f = flights[idx];
    const Query& q = inst.query(f.query);
    const DatasetDemand& dd = q.demands[f.demand];
    bool new_replica = false;
    const SiteId site = best_site_for(q, dd, f.need, &new_replica);
    if (site == kInvalidSite) return false;
    if (new_replica) res.replica_sites[dd.dataset].push_back(site);
    const Dataset& ds = inst.dataset(dd.dataset);
    const double total = faults.evaluation_delay(q, dd, site);
    const double proc = ds.volume * inst.site(site).proc_delay;
    launch_flight(f.query, f.demand, site, f.need, proc, total);
    const double completion = eq.now() + total;
    res.outcomes[f.query].completion_time =
        std::max(res.outcomes[f.query].completion_time, completion);
    demand_ends[layout.at(f.query, f.demand)] = {site, completion};
    ++res.demands_relocated;
    if (rec_on) {
      record_flight(obs::RecordKind::kRelocate, f.query, f.demand, site,
                    dd.dataset, total, proc);
    }
    if (wd != nullptr) {
      const double eff = faults.available(site);
      wd->on_site_util(eq.now(), site,
                       eff > 0.0 ? sites[site].in_use / eff : 1.0);
      wd->on_completion(
          eq.now(),
          q.deadline - (completion - res.outcomes[f.query].arrival_time),
          false);
    }
    start_transfer(f.query, f.demand, site, total);
    if (flow_on) {
      flow_predicted[f.query] = std::max(flow_predicted[f.query], completion);
    }
    if (trace_on) {
      instants.push_back({"online.relocate",
                          demand_span_id(f.query, f.demand, 0), eq.now(),
                          0.0});
      if (query_span[f.query] != kNoSpan) {
        spans[query_span[f.query]].t1 =
            std::max(spans[query_span[f.query]].t1, completion);
      }
    }
    if (metrics_on) {
      static obs::Counter& relocated = obs::metrics().counter(
          "edgerep_online_demands_relocated_total",
          "displaced demands re-seated on surviving sites");
      relocated.inc();
    }
    return true;
  };

  /// A displaced flight either relocates or takes its whole query down.
  auto displace = [&](std::size_t idx) {
    const QueryId m = flights[idx].query;
    if (res.outcomes[m].failed_by_fault) return;
    if (!cfg.repair_on_failure || !relocate(idx)) fail_query(m);
  };

  auto on_site_down = [&](SiteId s) {
    // Replicas stored at the crashed site are lost (recovery restores
    // capacity, not data).
    for (auto& v : res.replica_sites) {
      const auto it = std::find(v.begin(), v.end(), s);
      if (it != v.end()) {
        v.erase(it);
        ++res.replicas_lost_to_faults;
      }
    }
    // Kill the in-flight work first so relocations see the freed ledger,
    // then re-seat (or fail) in admission order.
    std::vector<std::size_t> displaced;
    for (const std::size_t idx : by_site[s]) {
      if (flights[idx].alive) displaced.push_back(idx);
    }
    for (const std::size_t idx : displaced) {
      if (rec_on) {
        const Inflight& f = flights[idx];
        obs::JournalRecord r;
        r.time = eq.now();
        r.a = f.query;
        r.site = s;
        r.kind = static_cast<std::uint8_t>(obs::RecordKind::kShed);
        r.arg = static_cast<std::uint8_t>(f.demand);
        r.flags = 0;  // shed cause: site down
        rec->append(r);
      }
      kill_flight(idx);
    }
    by_site[s].clear();
    for (const std::size_t idx : displaced) displace(idx);
    // Queries aggregating at the crashed home cannot deliver results.
    for (std::size_t idx = 0; idx < flights.size(); ++idx) {
      if (flights[idx].alive && inst.query(flights[idx].query).home == s) {
        fail_query(flights[idx].query);
      }
    }
  };

  auto on_capacity_loss = [&](SiteId s) {
    const double eff = faults.available(s);
    if (sites[s].in_use <= eff + 1e-9) return;
    // Shed the most recently admitted work first until the site fits its
    // degraded availability (LIFO: the oldest work is closest to done).
    // Index-based over the size at entry: a relocation can re-seat work on
    // this same site (appending to `here`), which would invalidate
    // iterators; appended flights are by construction within the reduced
    // availability and are never shed here.
    auto& here = by_site[s];
    for (std::size_t i = here.size(); i > 0; --i) {
      if (sites[s].in_use <= eff + 1e-9) break;
      const std::size_t idx = here[i - 1];
      if (!flights[idx].alive) continue;
      if (rec_on) {
        const Inflight& f = flights[idx];
        obs::JournalRecord r;
        r.time = eq.now();
        r.a = f.query;
        r.site = s;
        r.kind = static_cast<std::uint8_t>(obs::RecordKind::kShed);
        r.arg = static_cast<std::uint8_t>(f.demand);
        r.flags = 1;  // shed cause: capacity loss
        rec->append(r);
      }
      kill_flight(idx);
      displace(idx);
    }
  };

  // Admission of one query at its arrival instant.  Transactional: collect
  // a tentative per-demand decision, commit only when every demand lands.
  auto admit = [&](const Query& q, OnlineOutcome& outcome) {
    struct Decision {
      SiteId site = kInvalidSite;
      bool new_replica = false;
      double need = 0.0;
      double proc = 0.0;
      double total_delay = 0.0;
    };
    std::vector<Decision> decisions;
    decisions.reserve(q.demands.size());
    // Tentative loads so one query's demands see each other's reservations.
    std::vector<double> tentative(sites.size(), 0.0);
    std::vector<std::size_t> tentative_replicas(inst.datasets().size(), 0);

    /// Forensics on the failing demand (audit facet only; reads state, so
    /// the hot admission scan below stays untouched).
    auto classify_rejection = [&](const DatasetDemand& dd) {
      bool any_deadline = false;
      bool any_budget = false;
      for (const Site& s : inst.sites()) {
        if (!faults.site_up(s.id)) continue;
        if (!faults.deadline_ok(q, dd, s.id)) continue;
        any_deadline = true;
        if (!has_replica(dd.dataset, s.id)) {
          if (!cfg.reactive_replicas) continue;
          if (res.replica_sites[dd.dataset].size() +
                  tentative_replicas[dd.dataset] >=
              inst.max_replicas()) {
            continue;
          }
        }
        any_budget = true;
      }
      if (!any_deadline) return obs::AuditReason::kNoDeadlineFeasibleSite;
      if (!any_budget) return obs::AuditReason::kReplicaBudgetSpent;
      return obs::AuditReason::kCapacityExhausted;
    };
    /// Log the abort: already-decided siblings roll back, the failing
    /// demand carries the binding reason.
    auto audit_abort = [&](std::uint32_t failing, obs::AuditReason why) {
      if (!audit_on) return;
      for (std::uint32_t j = 0; j < failing; ++j) {
        obs::AuditEntry e;
        e.algorithm = "online";
        e.query = q.id;
        e.demand = j;
        e.dataset = q.demands[j].dataset;
        e.admitted = false;
        e.reason = obs::AuditReason::kAtomicRollback;
        e.site = decisions[j].site;
        audit_entries.push_back(e);
      }
      obs::AuditEntry e;
      e.algorithm = "online";
      e.query = q.id;
      e.demand = failing;
      e.dataset = failing < q.demands.size()
                      ? q.demands[failing].dataset
                      : (q.demands.empty() ? 0 : q.demands.front().dataset);
      e.admitted = false;
      e.reason = why;
      audit_entries.push_back(e);
    };

    auto record_reject = [&](std::uint32_t failing, obs::AuditReason why) {
      obs::JournalRecord r;
      r.time = eq.now();
      r.a = q.id;
      r.b = failing;
      r.site = obs::kNoSite;
      r.kind = static_cast<std::uint8_t>(obs::RecordKind::kReject);
      r.arg = static_cast<std::uint8_t>(why);
      rec->append(r);
    };

    if (!faults.site_up(q.home)) {  // nowhere to aggregate
      audit_abort(0, obs::AuditReason::kNoDeadlineFeasibleSite);
      if (rec_on) record_reject(0, obs::AuditReason::kNoDeadlineFeasibleSite);
      return false;
    }
    for (const DatasetDemand& dd : q.demands) {
      const double need = resource_demand(inst, q, dd);
      Decision best;
      double best_fill = 0.0;
      for (const Site& s : inst.sites()) {
        if (!faults.site_up(s.id)) continue;
        const bool replica_here = has_replica(dd.dataset, s.id);
        if (!replica_here) {
          if (!cfg.reactive_replicas) continue;
          const std::size_t count = res.replica_sites[dd.dataset].size() +
                                    tentative_replicas[dd.dataset];
          if (count >= inst.max_replicas()) continue;
        }
        if (!faults.deadline_ok(q, dd, s.id)) continue;
        const double eff = faults.available(s.id);
        const double load = sites[s.id].in_use + tentative[s.id];
        if (load + need > eff + 1e-9) continue;
        // Same scarcity rule as the offline pricer: least relative fill.
        const double fill = eff > 0.0 ? (load + need) / eff : 1e18;
        if (best.site == kInvalidSite || fill < best_fill) {
          best.site = s.id;
          best.new_replica = !replica_here;
          best_fill = fill;
        }
      }
      if (best.site == kInvalidSite) {
        const obs::AuditReason why = classify_rejection(dd);
        audit_abort(static_cast<std::uint32_t>(decisions.size()), why);
        if (rec_on) {
          record_reject(static_cast<std::uint32_t>(decisions.size()), why);
        }
        return false;
      }
      best.need = need;
      const Dataset& ds = inst.dataset(dd.dataset);
      best.proc = ds.volume * inst.site(best.site).proc_delay;
      best.total_delay = faults.evaluation_delay(inst.query(q.id), dd,
                                                 best.site);
      tentative[best.site] += need;
      if (best.new_replica) ++tentative_replicas[dd.dataset];
      decisions.push_back(best);
    }
    // Commit.
    double response = 0.0;
    if (trace_on) {
      query_span[q.id] = spans.size();
      spans.push_back({"online.query", query_span_id(q.id), eq.now(),
                       eq.now()});
    }
    for (std::size_t i = 0; i < q.demands.size(); ++i) {
      const Decision& d = decisions[i];
      const DatasetId n = q.demands[i].dataset;
      if (d.new_replica && !has_replica(n, d.site)) {
        res.replica_sites[n].push_back(d.site);
      }
      launch_flight(q.id, static_cast<std::uint32_t>(i), d.site, d.need,
                    d.proc, d.total_delay);
      demand_ends[layout.at(q.id, static_cast<std::uint32_t>(i))] = {
          d.site, eq.now() + d.total_delay};
      response = std::max(response, d.total_delay);
      if (rec_on) {
        record_flight(obs::RecordKind::kTransferStart, q.id,
                      static_cast<std::uint32_t>(i), d.site, n, d.total_delay,
                      d.proc);
      }
      start_transfer(q.id, static_cast<std::uint32_t>(i), d.site,
                     d.total_delay);
      if (wd != nullptr) {
        const double eff = faults.available(d.site);
        wd->on_site_util(eq.now(), d.site,
                         eff > 0.0 ? sites[d.site].in_use / eff : 1.0);
      }
      if (audit_on) {
        obs::AuditEntry e;
        e.algorithm = "online";
        e.query = q.id;
        e.demand = static_cast<std::uint32_t>(i);
        e.dataset = n;
        e.admitted = true;
        e.site = d.site;
        e.placed_replica = d.new_replica;
        audit_entries.push_back(e);
      }
    }
    track_peak();
    outcome.completion_time = eq.now() + response;
    if (wd != nullptr) {
      wd->on_completion(eq.now(), q.deadline - response, false);
    }
    if (flow_on) flow_predicted[q.id] = outcome.completion_time;
    if (trace_on && query_span[q.id] != kNoSpan) {
      spans[query_span[q.id]].t1 = outcome.completion_time;
    }
    return true;
  };

  // Fault events first: at equal times a fault resolves before an arrival
  // (FIFO tie-break on insertion order).
  for (const FaultEvent& e : cfg.faults.events) {
    eq.schedule_at(e.time, [&, e] {
      faults.apply(e);
      ++res.fault_events_applied;
      if (rec_on) {
        obs::JournalRecord r;
        r.time = eq.now();
        r.v0 = e.fraction;
        r.a = static_cast<std::uint32_t>(e.edge);
        r.site = static_cast<std::uint32_t>(e.site);
        r.kind = static_cast<std::uint8_t>(obs::RecordKind::kFaultApply);
        r.arg = static_cast<std::uint8_t>(e.kind);
        rec->append(r);
      }
      switch (e.kind) {
        case FaultKind::kSiteDown:
          on_site_down(e.site);
          break;
        case FaultKind::kCapacityLoss:
          update_flow_links(e.site);
          on_capacity_loss(e.site);
          break;
        case FaultKind::kCapacityRestore:
          update_flow_links(e.site);
          break;
        default:
          break;  // recoveries and link events shape future decisions only
      }
      if (metrics_on) {
        static obs::Counter& fault_events = obs::metrics().counter(
            "edgerep_online_fault_events_total",
            "fault-trace events applied by the online simulator");
        fault_events.inc();
      }
      push_status(false);
    });
  }

  // Arrival schedule (instance order), drained from the shared stream up
  // front — the closure engine needs every event in the heap before run().
  // Outcomes are pre-sized so the events can safely index into the vector.
  res.outcomes.resize(inst.queries().size());
  OnlineArrivalStream arrivals(inst.queries().size(), cfg.arrivals,
                               cfg.arrival_rate, cfg.seed,
                               cfg.wave_amplitude, cfg.wave_period);
  double when = 0.0;
  QueryId m = 0;
  while (arrivals.next(&when, &m)) {
    res.outcomes[m] = OnlineOutcome{m, when, false, 0.0, false};
    eq.schedule_at(when, [&, m] {
      ++arrivals_seen;
      if (rec_on) {
        const Query& q = inst.query(m);
        obs::JournalRecord r;
        r.time = eq.now();
        r.v0 = q.deadline;
        r.a = m;
        r.b = static_cast<std::uint32_t>(q.demands.size());
        r.site = obs::kNoSite;
        r.kind = static_cast<std::uint8_t>(obs::RecordKind::kArrival);
        rec->append(r);
      }
      if (wd != nullptr) {
        const Query& q = inst.query(m);
        wd->on_arrival(eq.now(), 0);
        for (const DatasetDemand& dd : q.demands) {
          wd->on_demand(eq.now(), dd.dataset);
        }
      }
      const bool ok = admit(inst.query(m), res.outcomes[m]);
      res.outcomes[m].admitted = ok;
      if (ok) {
        ++res.admitted_queries;  // provisional; faults may revoke below
      } else {
        ++rejected_queries;
      }
      if (c_arrivals != nullptr) {
        c_arrivals->inc();
        (ok ? c_admitted : c_rejected)->inc();
      }
      push_status(false);
    });
  }
  // The arrival loop above keeps a provisional admitted count so the status
  // board can show it live; recompute exactly below once faults settle.
  res.kernel_stats.events_processed = eq.run();
  res.kernel_stats.peak_pending_events = eq.peak_pending();
  res.kernel_stats.peak_event_bytes =
      eq.peak_pending() * (sizeof(double) + sizeof(std::uint64_t) +
                           sizeof(std::function<void()>));
  res.kernel_stats.flight_bytes = flights.capacity() * sizeof(Inflight);

  online_detail::finalize_online_result(inst, layout, demand_ends, &res);
  if (flow_on) online_detail::finalize_flow_gap(inst, flow_predicted, &res);
  if (wd != nullptr) res.watchdog = wd->stats();

  if (trace_on) online_detail::emit_online_spans(spans, instants);
  if (audit_on) {
    obs::audit_log().record_batch(audit_entries);
  }
  if (metrics_on) {
    static obs::Gauge& g_hit_ratio = obs::metrics().gauge(
        "edgerep_online_slo_hit_ratio",
        "deadline hit ratio of the last online run");
    g_hit_ratio.set(res.slo.hit_ratio);
  }
  push_status(true);
  return res;
}

}  // namespace

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
  return cfg.kernel == OnlineKernel::kTyped
             ? run_online_typed(inst, cfg, proactive)
             : run_online_closure(inst, cfg, proactive);
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
