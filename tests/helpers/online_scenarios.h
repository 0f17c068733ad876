// Online-simulator scenarios shared by the suites that pin run_online and
// by the golden fixtures that freeze its output (sim/online_golden_test.cpp).
// A golden row is only as meaningful as the scenario behind it, so the
// suites and the golden table build their inputs from these same helpers.
#pragma once

#include <cstdint>

#include "cloud/instance.h"
#include "obs/watchdog.h"
#include "sim/faults.h"
#include "sim/online.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep::testing {

/// Crashes, link failures and capacity losses (data centers included) over
/// a 40 s horizon: dense enough that faults land on live flights.
inline FaultTrace stress_trace(const Instance& inst, std::uint64_t seed) {
  FaultScenarioConfig fc;
  fc.horizon = 40.0;
  fc.site_crashes = 2;
  fc.link_failures = 2;
  fc.capacity_losses = 2;
  fc.mean_repair_time = 8.0;
  fc.cloudlets_only = false;  // let data centers crash too
  return generate_fault_trace(inst, fc, seed);
}

/// Two crashes and a capacity loss over a 10 s horizon, arrival seed
/// 0x5e55 — the faulted run the recorder, watchdog and postmortem suites
/// journal.
inline OnlineConfig faulted_config(const Instance& inst) {
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);
  return cfg;
}

/// Watchdog thresholds loose enough that a small faulted online run trips
/// several detectors, so determinism pins compare streams with content.
inline obs::WatchdogConfig sensitive_watchdog_config() {
  obs::WatchdogConfig cfg;
  cfg.hotspot_warmup = 8;
  cfg.hotspot_open_share = 0.2;
  cfg.hotspot_resolve_share = 0.12;
  cfg.arrival_window = 0.5;
  cfg.rate_warmup = 2;
  cfg.rate_cusum_slack = 0.05;
  cfg.rate_cusum_threshold = 0.25;
  cfg.rate_resolve_ratio = 1.05;
  cfg.site_warmup = 2;
  cfg.site_ph_delta = 0.0;
  cfg.site_ph_lambda = 0.05;
  cfg.site_open_floor = 0.05;
  cfg.breach_warmup = 2;
  cfg.breach_open_level = 0.05;
  cfg.breach_resolve_level = 0.01;
  cfg.stretch_warmup = 1;
  cfg.stretch_open_seconds = 0.01;
  cfg.stretch_resolve_seconds = 0.005;
  return cfg;
}

/// Two sites with a hopeless local option: the lone query must evaluate at
/// the remote data center, so its transfer routes as a real flow over the
/// cl–sw–dc path.
inline Instance remote_tiny_instance() {
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  const NodeId sw = g.add_node(NodeRole::kSwitch);
  const NodeId dc = g.add_node(NodeRole::kDataCenter);
  g.add_edge(cl, sw, 0.1);
  g.add_edge(sw, dc, 1.0);
  Instance inst(std::move(g));
  inst.add_site(cl, 10.0, 5.0);  // 4 GB × 5 s/GB: local misses any deadline
  const SiteId s_dc = inst.add_site(dc, 100.0, 0.05);
  const DatasetId d0 = inst.add_dataset(4.0, s_dc);
  inst.add_query(/*home=*/0, 1.0, /*deadline=*/3.0, {{d0, 0.5}});
  inst.set_max_replicas(2);
  inst.finalize();
  return inst;
}

/// One 4-GHz cloudlet holding one 4-GB dataset and one query (rate 1,
/// α 0.5) with the given processing delay per GB and deadline.
inline Instance one_site_instance(double proc_delay, double deadline) {
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 4.0, proc_delay);
  const DatasetId d = inst.add_dataset(4.0, s);
  inst.add_query(s, 1.0, deadline, {{d, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();
  return inst;
}

/// Four sites with seconds-long flights (the flow suite's capacity-loss
/// instance): 120 queries over 8 datasets.
inline Instance four_site_flow_instance() {
  StreamWorkloadConfig wc;
  wc.sites = 4;
  wc.queries = 120;
  wc.datasets = 8;
  wc.proc_delay = {0.1, 0.3};
  return stream_instance(wc, 0xf10a);
}

/// A 0.9 capacity loss on each of the four sites at t ≈ 2 s, restored long
/// after the arrival window (t ≈ 200 s).
inline FaultTrace mid_flow_capacity_loss_trace() {
  FaultTrace trace;  // time-sorted: losses first, then the restores
  for (SiteId s = 0; s < 4; ++s) {
    FaultEvent e;
    e.time = 2.0 + 0.1 * s;
    e.kind = FaultKind::kCapacityLoss;
    e.site = s;
    e.fraction = 0.9;
    trace.events.push_back(e);
  }
  for (SiteId s = 0; s < 4; ++s) {
    FaultEvent r;
    r.time = 200.0 + 0.1 * s;
    r.kind = FaultKind::kCapacityRestore;
    r.site = s;
    trace.events.push_back(r);
  }
  return trace;
}

}  // namespace edgerep::testing
