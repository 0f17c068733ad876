#include "sim/simulator.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cloud/delay.h"
#include "net/routes.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event.h"
#include "sim/flows.h"
#include "util/rng.h"

namespace edgerep {

namespace {

constexpr double kGhzEps = 1e-9;
constexpr double kWorkEps = 1e-12;

struct Task {
  QueryId query = 0;
  std::uint32_t demand_index = 0;
  double ghz = 0.0;       ///< resource demand (exclusive in reservation mode)
  double duration = 0.0;  ///< nominal processing time at full speed
  double transfer = 0.0;  ///< result transfer delay (store-and-forward model)
  double transfer_size = 0.0;       ///< α·|S_n| GB (flow model)
  SiteId eval_site = kInvalidSite;  ///< where processing happened
};

struct QueryState {
  double issue_time = 0.0;
  std::size_t remaining_results = 0;
  bool fully_served = false;
  double completion_time = 0.0;
  bool completed = false;
};

/// Shared glue: when a task's processing ends, ship the intermediate
/// result and complete the query when it was the last one.
class ResultCollector {
 public:
  using PathLookup = std::function<std::vector<EdgeId>(SiteId, QueryId)>;

  ResultCollector(EventQueue& eq, std::vector<QueryState>& queries)
      : eq_(&eq), queries_(&queries) {}

  /// Route transfers through a flow engine instead of fixed delays.
  void use_flows(FlowEngine* flows, PathLookup paths) {
    flows_ = flows;
    paths_ = std::move(paths);
  }

  void task_processed(const Task& t) {
    auto deliver = [this, query = t.query] {
      QueryState& qs = (*queries_)[query];
      if (--qs.remaining_results == 0) {
        qs.completion_time = eq_->now();
        qs.completed = true;
      }
    };
    if (flows_ != nullptr) {
      flows_->start_flow(t.transfer_size, paths_(t.eval_site, t.query),
                         std::move(deliver));
    } else {
      eq_->schedule_in(t.transfer, std::move(deliver));
    }
  }

 private:
  EventQueue* eq_;
  std::vector<QueryState>* queries_;
  FlowEngine* flows_ = nullptr;
  PathLookup paths_;
};

/// Reservation discipline: FIFO start order with head-of-line blocking; a
/// running task holds its GHz exclusively.
class ReservationEngine {
 public:
  ReservationEngine(EventQueue& eq, ResultCollector& results,
                    std::vector<double> capacity)
      : eq_(&eq), results_(&results), free_(std::move(capacity)),
        waiting_(free_.size()) {}

  void submit(SiteId l, const Task& t) {
    waiting_[l].push_back(t);
    try_start(l);
  }

 private:
  void try_start(SiteId l) {
    while (!waiting_[l].empty() &&
           waiting_[l].front().ghz <= free_[l] + kGhzEps) {
      const Task t = waiting_[l].front();
      waiting_[l].pop_front();
      free_[l] -= t.ghz;
      eq_->schedule_in(t.duration, [this, l, t] {
        free_[l] += t.ghz;
        try_start(l);
        results_->task_processed(t);
      });
    }
  }

  EventQueue* eq_;
  ResultCollector* results_;
  std::vector<double> free_;
  std::vector<std::deque<Task>> waiting_;
};

/// Processor-sharing discipline: every task runs immediately; when demand
/// exceeds capacity all of a site's tasks progress at the common rate
/// capacity / Σ ghz.  Finish events carry a generation token so stale
/// predictions are ignored after arrivals change the rate.
class ProcessorSharingEngine {
 public:
  ProcessorSharingEngine(EventQueue& eq, ResultCollector& results,
                         std::vector<double> capacity)
      : eq_(&eq), results_(&results), sites_(capacity.size()) {
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      sites_[l].capacity = capacity[l];
    }
  }

  void submit(SiteId l, const Task& t) {
    SiteState& st = sites_[l];
    advance(st);
    st.tasks.push_back(Running{t, std::max(t.duration, 0.0)});
    drain_finished(l);
    reschedule(l);
  }

 private:
  struct Running {
    Task task;
    double remaining = 0.0;  ///< nominal seconds left at full speed
  };
  struct SiteState {
    double capacity = 0.0;
    std::vector<Running> tasks;
    double last_update = 0.0;
    double speed = 1.0;  ///< progress rate since last_update
    std::uint64_t gen = 0;
  };

  double current_speed(const SiteState& st) const {
    double demand = 0.0;
    for (const Running& r : st.tasks) demand += r.task.ghz;
    if (demand <= st.capacity + kGhzEps || demand <= 0.0) return 1.0;
    return st.capacity / demand;
  }

  /// Progress all running tasks up to now at the previously cached speed.
  void advance(SiteState& st) {
    const double now = eq_->now();
    const double dt = now - st.last_update;
    if (dt > 0.0) {
      for (Running& r : st.tasks) r.remaining -= dt * st.speed;
    }
    st.last_update = now;
  }

  void drain_finished(SiteId l) {
    SiteState& st = sites_[l];
    for (std::size_t i = 0; i < st.tasks.size();) {
      if (st.tasks[i].remaining <= kWorkEps) {
        results_->task_processed(st.tasks[i].task);
        st.tasks.erase(st.tasks.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  void reschedule(SiteId l) {
    SiteState& st = sites_[l];
    st.speed = current_speed(st);
    const std::uint64_t token = ++st.gen;
    if (st.tasks.empty()) return;
    if (st.speed <= 0.0) return;  // zero capacity: tasks are starved forever
    double min_remaining = st.tasks[0].remaining;
    for (const Running& r : st.tasks) {
      min_remaining = std::min(min_remaining, r.remaining);
    }
    const double eta = std::max(min_remaining, 0.0) / st.speed;
    eq_->schedule_in(eta, [this, l, token] {
      SiteState& site = sites_[l];
      if (site.gen != token) return;  // superseded by a later arrival
      advance(site);
      drain_finished(l);
      reschedule(l);
    });
  }

  EventQueue* eq_;
  ResultCollector* results_;
  std::vector<SiteState> sites_;
};

}  // namespace

SimReport simulate(const ReplicaPlan& plan, const SimConfig& cfg) {
  EDGEREP_TRACE_SCOPE("sim.simulate");
  const Instance& inst = plan.instance();
  EventQueue eq;
  Rng rng(cfg.seed);

  std::vector<double> capacity(inst.sites().size(), 0.0);
  for (const Site& s : inst.sites()) {
    capacity[s.id] = cfg.capacity_factor * s.available;
  }
  std::vector<QueryState> queries(inst.queries().size());
  ResultCollector results(eq, queries);
  std::unique_ptr<FlowEngine> flows;
  RouteTable routes;  // row = evaluation site; rows computed on first use
  if (cfg.transfers == SimConfig::TransferModel::kMaxMinFair) {
    std::vector<double> bandwidth;
    bandwidth.reserve(inst.graph().num_edges());
    for (const Edge& e : inst.graph().edges()) {
      // Per-GB delay is the inverse of bandwidth; zero-delay links are
      // effectively infinite.
      bandwidth.push_back(e.delay > 0.0 ? 1.0 / e.delay : 1e9);
    }
    flows = std::make_unique<FlowEngine>(eq, std::move(bandwidth));
    std::vector<NodeId> site_nodes;
    site_nodes.reserve(inst.sites().size());
    for (const Site& s : inst.sites()) site_nodes.push_back(s.node);
    routes = RouteTable(inst.graph(), site_nodes);
    results.use_flows(flows.get(), [&inst, &routes](SiteId from, QueryId m) {
      // An unreachable home leaves the path empty: the transfer completes
      // at once, as a local one does.
      std::vector<EdgeId> path;
      routes.edge_path(from, inst.site(inst.query(m).home).node, path);
      return path;
    });
  }
  ReservationEngine reservation(eq, results, capacity);
  ProcessorSharingEngine sharing(eq, results, capacity);
  auto submit = [&](SiteId l, const Task& t) {
    if (cfg.discipline == SimConfig::Discipline::kProcessorSharing) {
      sharing.submit(l, t);
    } else {
      reservation.submit(l, t);
    }
  };

  // Issue times.
  double clock = 0.0;
  for (const Query& q : inst.queries()) {
    switch (cfg.arrivals) {
      case SimConfig::Arrivals::kPoisson:
        clock += rng.exponential(cfg.arrival_rate);
        break;
      case SimConfig::Arrivals::kUniform:
        clock += 1.0 / cfg.arrival_rate;
        break;
      case SimConfig::Arrivals::kAllAtOnce:
        break;
    }
    queries[q.id].issue_time = clock;
  }

  for (const Query& q : inst.queries()) {
    QueryState& qs = queries[q.id];
    // A query runs only when admission control assigned *every* demand
    // (rejected queries are not evaluated on the testbed).
    bool all_assigned = true;
    for (const DatasetDemand& dd : q.demands) {
      if (!plan.assignment(q.id, dd.dataset)) {
        all_assigned = false;
        break;
      }
    }
    if (!all_assigned) continue;
    qs.fully_served = true;
    qs.remaining_results = q.demands.size();
    for (std::uint32_t i = 0; i < q.demands.size(); ++i) {
      const DatasetDemand& dd = q.demands[i];
      const SiteId l = *plan.assignment(q.id, dd.dataset);
      const Dataset& ds = inst.dataset(dd.dataset);
      Task t;
      t.query = q.id;
      t.demand_index = i;
      t.ghz = resource_demand(inst, q, dd);
      t.duration = ds.volume * inst.site(l).proc_delay;
      t.transfer = dd.selectivity * ds.volume * inst.path_delay(l, q.home);
      t.transfer_size = dd.selectivity * ds.volume;
      t.eval_site = l;
      eq.schedule_at(qs.issue_time, [&submit, l, t] { submit(l, t); });
    }
  }

  std::size_t executed = 0;
  {
    EDGEREP_TRACE_SCOPE("sim.run_events");
    executed = eq.run(cfg.max_events);
  }
  if (executed >= cfg.max_events) {
    throw std::runtime_error("simulate: event budget exhausted (livelock?)");
  }

  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(inst.queries().size());
  for (const Query& q : inst.queries()) {
    const QueryState& qs = queries[q.id];
    QueryOutcome o;
    o.query = q.id;
    o.issue_time = qs.issue_time;
    o.fully_served = qs.fully_served && qs.completed;
    o.completion_time = qs.completion_time;
    o.met_deadline =
        o.fully_served && o.response_delay() <= q.deadline + 1e-9;
    outcomes.push_back(o);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& sims = obs::metrics().counter(
        "edgerep_sim_runs_total", "simulate() calls");
    static obs::Counter& events = obs::metrics().counter(
        "edgerep_sim_events_executed_total",
        "discrete events executed by the testbed simulator");
    static obs::Counter& served = obs::metrics().counter(
        "edgerep_sim_queries_served_total",
        "queries fully served on the testbed");
    static obs::Counter& missed = obs::metrics().counter(
        "edgerep_sim_deadline_misses_total",
        "served queries that missed their QoS deadline");
    static obs::Histogram& response = obs::metrics().histogram(
        "edgerep_sim_response_seconds",
        {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0},
        "end-to-end response delay of served queries");
    sims.inc();
    events.inc(executed);
    for (const QueryOutcome& o : outcomes) {
      if (!o.fully_served) continue;
      served.inc();
      if (!o.met_deadline) missed.inc();
      response.observe(o.response_delay());
    }
  }
  return build_report(inst, std::move(outcomes));
}

}  // namespace edgerep
