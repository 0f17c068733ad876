// Golden fixtures for run_online.  Every scenario grid that used to run the
// typed event kernel against the closure (std::function) kernel is frozen
// here as checked-in digests of the closure kernel's output, recorded at
// commit 98aca196 — the last commit that had both kernels.  Each row
// carries:
//
//  * online_result_hash — every contract field (outcomes, aggregates,
//    replica placement, fault accounting, SLO rollup), raw double bits;
//  * a bitwise digest of all eight FlowGapStats fields (outside the hash,
//    but deterministic);
//  * the FNV-1a digest of the serialized journal, where the recorder is on;
//  * a digest of the alert stream and the WatchdogStats rollup, where the
//    watchdog is on.
//
// A mismatch is a failing test, never a fixture update.  Regenerate a row
// only for a deliberate semantic change to the simulator: the failure
// message prints the measured row, and the change that updates it says
// why the old output was wrong.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/appro.h"
#include "helpers/fixtures.h"
#include "helpers/online_scenarios.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/online.h"
#include "workload/arrival_gen.h"

namespace edgerep {
namespace {

using testing::medium_instance;
using testing::stress_trace;

struct Digests {
  std::uint64_t result_hash = 0;
  std::uint64_t flow_gap = 0;
  std::uint64_t journal = 0;  ///< 0 where the recorder is off
  std::uint64_t alerts = 0;   ///< 0 where the watchdog is off
  bool operator==(const Digests&) const = default;
};

struct GoldenRow {
  const char* name;
  Digests want;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"FaultFreePoisson/1",
     {0x2b7ab8501e171b98, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultFreePoisson/2",
     {0x75b05fb86c2bbc06, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultFreePoisson/3",
     {0x52651be5925a3619, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultFreePoisson/4",
     {0x5838fd09dcd37029, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultFreePoisson/5",
     {0x3e4637ffd9ba0b89, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultFreePoisson/6",
     {0x44ecb38b85808ac1, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithRepair/1",
     {0x07cbd849dd44b0f3, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithRepair/2",
     {0x0f3720533085eeb1, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithRepair/3",
     {0x137c4288e9b1287b, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithRepair/4",
     {0xc672f45260b8e81f, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithRepair/5",
     {0xbe6f216d28889fe5, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithRepair/6",
     {0x75ab629e6d0c64ef, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithoutRepair/1",
     {0x5dc01da41b3f02a3, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithoutRepair/2",
     {0x57df40a33691a4b3, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithoutRepair/3",
     {0x374e90a6104b535f, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithoutRepair/4",
     {0x6e87a58f960af22d, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithoutRepair/5",
     {0x9a2b379561f7e087, 0xeebe4e4e51c6c683, 0, 0}},
    {"FaultsWithoutRepair/6",
     {0x954d2408c013246c, 0xeebe4e4e51c6c683, 0, 0}},
    {"UniformArrivalsNoReactiveReplicas/1",
     {0x0c2d9267e80ae897, 0xeebe4e4e51c6c683, 0, 0}},
    {"UniformArrivalsNoReactiveReplicas/2",
     {0x5050fdc3ee833879, 0xeebe4e4e51c6c683, 0, 0}},
    {"UniformArrivalsNoReactiveReplicas/3",
     {0x79d65bc8a015cf59, 0xeebe4e4e51c6c683, 0, 0}},
    {"UniformArrivalsNoReactiveReplicas/4",
     {0x3c4d858e9c87d791, 0xeebe4e4e51c6c683, 0, 0}},
    {"UniformArrivalsNoReactiveReplicas/5",
     {0xf2a811de3ed2f45b, 0xeebe4e4e51c6c683, 0, 0}},
    {"UniformArrivalsNoReactiveReplicas/6",
     {0x5e10a5ef80d53307, 0xeebe4e4e51c6c683, 0, 0}},
    {"ProactiveSeedWithFaults/1",
     {0x14ba8c9ee6373ff9, 0xeebe4e4e51c6c683, 0, 0}},
    {"ProactiveSeedWithFaults/2",
     {0x9fc84a92e72e9f36, 0xeebe4e4e51c6c683, 0, 0}},
    {"ProactiveSeedWithFaults/3",
     {0xa238463744c1102e, 0xeebe4e4e51c6c683, 0, 0}},
    {"ProactiveSeedWithFaults/4",
     {0x0e6b00356ff972f2, 0xeebe4e4e51c6c683, 0, 0}},
    {"ProactiveSeedWithFaults/5",
     {0x475116d8e6ebf63a, 0xeebe4e4e51c6c683, 0, 0}},
    {"ProactiveSeedWithFaults/6",
     {0xfbb2ec5b7e4d8a4a, 0xeebe4e4e51c6c683, 0, 0}},
    {"CompactionChurnWithCapacityLoss",
     {0xdd9dfe1232c29327, 0xeebe4e4e51c6c683, 0, 0}},
    {"Flow.ContentionFreeFaultFree/1",
     {0xb35d3c8aa5f1d705, 0x2f5d62c02722f178, 0, 0}},
    {"Flow.ContentionFreeFaultFree/2",
     {0x30a4acdb02e65cb9, 0x0a86862e0fc7e742, 0, 0}},
    {"Flow.ContentionFreeFaultFree/3",
     {0xbec24cb0bc7d2c07, 0x87b0ab4cedb5f8a1, 0, 0}},
    {"Flow.ContentionFreeFaultFree/4",
     {0xbf33bf9e8c0c3008, 0x981399adac317ed3, 0, 0}},
    {"Flow.ContentionFreeWithFaults/1",
     {0x911fedb4d9448f59, 0xee2d27510fbdfdba, 0, 0}},
    {"Flow.ContentionFreeWithFaults/2",
     {0x526a341b5da9e500, 0xd5372f02b4211962, 0, 0}},
    {"Flow.ContentionFreeWithFaults/3",
     {0xc6431ee02f872e55, 0x69e9a14fefccb642, 0, 0}},
    {"Flow.ContentionFreeWithFaults/4",
     {0xbd76ccd5f8d55e61, 0xc74634ee805a70ec, 0, 0}},
    {"Flow.SingleFlowAtRealCapacity",
     {0x095d74a43a803df6, 0x4af45cfb097c41c2, 0, 0}},
    {"Flow.Oversubscription64",
     {0x1e5945782c634dbf, 0xb8a2ea4169e2d039, 0, 0}},
    {"Flow.CapacityLossMidFlow",
     {0x93995c13ff434752, 0xb452d97c128a1f74, 0, 0}},
    {"Online.PublishedUtilization",
     {0x715c131290891b23, 0xeebe4e4e51c6c683, 0, 0}},
    {"Kernel.FaultAtArrivalInstant",
     {0x507e1bccd060a6fa, 0xeebe4e4e51c6c683, 0, 0}},
    {"Kernel.StaleCompletionsAfterCrash",
     {0x79a3f3fc86cf81af, 0xeebe4e4e51c6c683, 0, 0}},
    {"Kernel.HorizonLongerThanConcurrency",
     {0xfe4954b1113776f2, 0xeebe4e4e51c6c683, 0, 0}},
    {"Obs.RecorderWithEveryOtherFacet",
     {0x2634ffe660d8c89f, 0xeebe4e4e51c6c683, 0x5c079ab994a5085d, 0}},
    {"Obs.AllFiveFacets",
     {0x2634ffe660d8c89f, 0xeebe4e4e51c6c683, 0x5c079ab994a5085d, 0xc3b584ef67d3af43}},
    {"Watchdog.SensitiveWithFaults",
     {0x4183eb7e5b7ec9dc, 0xeebe4e4e51c6c683, 0x1860811af8d85468, 0x0d0e4f82679df634}},
    {"Postmortem.FaultedJournal",
     {0x2634ffe660d8c89f, 0xeebe4e4e51c6c683, 0x5c079ab994a5085d, 0}},
};
// clang-format on

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

void fnv(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
}
void fnv_u64(std::uint64_t* h, std::uint64_t v) { fnv(h, &v, sizeof v); }
void fnv_double(std::uint64_t* h, double v) {
  fnv_u64(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t flow_gap_digest(const FlowGapStats& g) {
  std::uint64_t h = kFnvBasis;
  fnv_u64(&h, g.flows_routed);
  fnv_u64(&h, g.rate_changes);
  fnv_u64(&h, g.queries_compared);
  fnv_u64(&h, g.predicted_hits);
  fnv_u64(&h, g.actual_hits);
  fnv_u64(&h, g.gap_breaches);
  fnv_double(&h, g.max_stretch);
  fnv_double(&h, g.mean_stretch);
  return h;
}

std::uint64_t alert_digest(const std::vector<obs::Alert>& alerts,
                           const obs::WatchdogStats& stats) {
  std::uint64_t h = kFnvBasis;
  fnv_u64(&h, alerts.size());
  for (const obs::Alert& a : alerts) {
    fnv_double(&h, a.onset);
    fnv_double(&h, a.resolve);
    fnv_u64(&h, static_cast<std::uint64_t>(a.kind));
    fnv_u64(&h, static_cast<std::uint64_t>(a.severity));
    fnv_u64(&h, static_cast<std::uint64_t>(a.subject_kind));
    fnv_u64(&h, a.subject);
    fnv_u64(&h, a.seq);
    fnv_double(&h, a.onset_value);
    fnv_double(&h, a.threshold);
    fnv_double(&h, a.resolve_value);
  }
  fnv_u64(&h, stats.opened);
  fnv_u64(&h, stats.resolved);
  fnv_u64(&h, stats.open_at_end);
  fnv_u64(&h, stats.worst_severity);
  for (const std::size_t n : stats.opened_by_kind) fnv_u64(&h, n);
  return h;
}

/// Observability facets on during a golden run (all off by default).
struct Facets {
  bool metrics_trace_audit = false;
  bool recorder = false;
  std::optional<obs::WatchdogConfig> watchdog;  ///< on, with these thresholds
};

Digests measure(const Instance& inst, const OnlineConfig& cfg,
                const ReplicaPlan* plan, const Facets& f) {
  obs::set_all_enabled(f.metrics_trace_audit);
  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(f.recorder);
  obs::watchdog().set_config(f.watchdog.value_or(obs::WatchdogConfig{}));
  obs::set_watchdog_enabled(f.watchdog.has_value());

  const OnlineResult res = run_online(inst, cfg, plan);
  Digests d;
  d.result_hash = online_result_hash(res);
  d.flow_gap = flow_gap_digest(res.flow_gap);
  if (f.recorder) {
    std::ostringstream os;
    obs::recorder().write(os);
    const std::string bytes = os.str();
    d.journal = kFnvBasis;
    fnv(&d.journal, bytes.data(), bytes.size());
  }
  if (f.watchdog) {
    d.alerts = alert_digest(obs::watchdog().alerts(), res.watchdog);
  }

  obs::set_watchdog_enabled(false);
  obs::set_recorder_enabled(false);
  obs::set_all_enabled(false);
  obs::watchdog().set_config(obs::WatchdogConfig{});
  obs::recorder().clear();
  obs::audit_log().clear();
  obs::tracer().clear();
  obs::init_from_env();
  return d;
}

std::string hex(std::uint64_t v) {
  if (v == 0) return "0";
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The table row `d` would be, in checked-in form.
std::string format_row(const std::string& name, const Digests& d) {
  return "    {\"" + name + "\",\n     {" + hex(d.result_hash) + ", " +
         hex(d.flow_gap) + ", " + hex(d.journal) + ", " + hex(d.alerts) +
         "}},";
}

const GoldenRow* find_row(const std::string& name) {
  for (const GoldenRow& row : kGolden) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

/// Run the scenario and compare its digests with row `name`.
void expect_golden(const std::string& name, const Instance& inst,
                   const OnlineConfig& cfg, const ReplicaPlan* plan = nullptr,
                   const Facets& facets = {}) {
  const Digests got = measure(inst, cfg, plan, facets);
  const GoldenRow* row = find_row(name);
  ASSERT_NE(row, nullptr) << "no golden row '" << name << "'; measured:\n"
                          << format_row(name, got);
  EXPECT_TRUE(got == row->want) << "golden row differs; checked in:\n"
                                << format_row(name, row->want)
                                << "\nmeasured:\n"
                                << format_row(name, got);
}

// --- the former cross-kernel equivalence grid ------------------------------
// Randomized over instances, arrival models, fault scenarios, proactive
// seeding, and the reactive/repair toggles.

class OnlineKernelEquivalence : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const { return static_cast<std::uint64_t>(GetParam()); }
  std::string row(const char* scenario) const {
    return std::string(scenario) + "/" + std::to_string(GetParam());
  }
};

TEST_P(OnlineKernelEquivalence, FaultFreePoisson) {
  const Instance inst = medium_instance(seed(), /*f_max=*/4);
  OnlineConfig cfg;
  cfg.seed = 0xBEEF + seed();
  expect_golden(row("FaultFreePoisson"), inst, cfg);
}

TEST_P(OnlineKernelEquivalence, FaultsWithRepair) {
  const Instance inst = medium_instance(seed(), /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;  // dense horizon: faults land mid-flight
  cfg.faults = stress_trace(inst, seed() * 977 + 5);
  expect_golden(row("FaultsWithRepair"), inst, cfg);
}

TEST_P(OnlineKernelEquivalence, FaultsWithoutRepair) {
  const Instance inst = medium_instance(seed(), /*f_max=*/3);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.repair_on_failure = false;
  cfg.faults = stress_trace(inst, seed() * 31 + 1);
  expect_golden(row("FaultsWithoutRepair"), inst, cfg);
}

TEST_P(OnlineKernelEquivalence, UniformArrivalsNoReactiveReplicas) {
  const Instance inst = medium_instance(seed(), /*f_max=*/3);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 3.0;
  cfg.reactive_replicas = false;
  cfg.faults = stress_trace(inst, seed() + 404);
  expect_golden(row("UniformArrivalsNoReactiveReplicas"), inst, cfg);
}

TEST_P(OnlineKernelEquivalence, ProactiveSeedWithFaults) {
  const Instance inst = medium_instance(seed(), /*f_max=*/4);
  const ApproResult offline = appro_g(inst);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.faults = stress_trace(inst, seed() * 13 + 7);
  expect_golden(row("ProactiveSeedWithFaults"), inst, cfg, &offline.plan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineKernelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The kernel compacts a site's handle list once it holds > 64 entries with
// more stale than live — a threshold the medium instances above never
// cross.  Drive heavy churn through a handful of sites (hundreds of
// launches and completions each), then strike them with repeated capacity
// losses so the shed path runs while relocations re-seat onto (and compact)
// the very lists being walked.
TEST(OnlineKernelEquivalenceEdge, CompactionChurnWithCapacityLoss) {
  StreamWorkloadConfig wc;
  wc.sites = 4;
  wc.queries = 3000;
  wc.datasets = 8;
  wc.proc_delay = {0.1, 0.3};  // seconds-long flights: deep per-site lists
  const Instance inst = stream_instance(wc, 0xc0de);
  OnlineConfig cfg;
  cfg.arrival_rate = 150.0;
  cfg.seed = 0xfeed;
  FaultTrace trace;
  auto loss = [&trace](double t, SiteId s, double frac) {
    FaultEvent e;
    e.time = t;
    e.kind = FaultKind::kCapacityLoss;
    e.site = s;
    e.fraction = frac;
    trace.events.push_back(e);
  };
  auto restore = [&trace](double t, SiteId s) {
    FaultEvent e;
    e.time = t;
    e.kind = FaultKind::kCapacityRestore;
    e.site = s;
    trace.events.push_back(e);
  };
  // Four loss/restore rounds across every site: each round sheds into an
  // already-degraded neighborhood, so displaced flights re-seat wherever
  // fill is lowest — including the struck site itself.
  for (int round = 0; round < 4; ++round) {
    const double base = 4.0 + 4.0 * round;
    for (SiteId s = 0; s < 4; ++s) loss(base + 0.1 * s, s, 0.75);
    for (SiteId s = 0; s < 4; ++s) restore(base + 2.0 + 0.1 * s, s);
  }
  validate_fault_trace(inst, trace);
  cfg.faults = trace;
  expect_golden("CompactionChurnWithCapacityLoss", inst, cfg);
}

TEST(OnlineKernelEquivalenceEdge, TypedKernelIsDeterministic) {
  const Instance inst = medium_instance(21, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.faults = stress_trace(inst, 99);
  const std::uint64_t a = online_result_hash(run_online(inst, cfg));
  const std::uint64_t b = online_result_hash(run_online(inst, cfg));
  EXPECT_EQ(a, b);
}

TEST(OnlineKernelEquivalenceEdge, HashDetectsOutcomeDifferences) {
  const Instance inst = medium_instance(22, /*f_max=*/3);
  OnlineResult r = run_online(inst);
  const std::uint64_t before = online_result_hash(r);
  r.outcomes.front().completion_time += 1e-12;  // one ulp-scale nudge
  EXPECT_NE(before, online_result_hash(r));
}

TEST(OnlineKernelEquivalenceEdge, KernelStatsExcludedFromHash) {
  const Instance inst = medium_instance(23, /*f_max=*/3);
  OnlineResult r = run_online(inst);
  const std::uint64_t before = online_result_hash(r);
  r.kernel_stats.events_processed += 1000;
  r.kernel_stats.peak_pending_events += 7;
  EXPECT_EQ(before, online_result_hash(r));
}

// --- flow backend (online_flow_test.cpp) -----------------------------------

class OnlineFlowGolden : public ::testing::TestWithParam<int> {
 protected:
  std::uint64_t seed() const { return static_cast<std::uint64_t>(GetParam()); }
  std::string row(const char* scenario) const {
    return std::string(scenario) + "/" + std::to_string(GetParam());
  }
};

TEST_P(OnlineFlowGolden, ContentionFreeFaultFree) {
  const Instance inst = medium_instance(seed(), /*f_max=*/4);
  OnlineConfig cfg;
  cfg.seed = 0xF10 + seed();
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 0.0;
  expect_golden(row("Flow.ContentionFreeFaultFree"), inst, cfg);
}

TEST_P(OnlineFlowGolden, ContentionFreeWithFaults) {
  const Instance inst = medium_instance(seed(), /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.faults = stress_trace(inst, seed() * 271 + 9);
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 0.0;
  expect_golden(row("Flow.ContentionFreeWithFaults"), inst, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineFlowGolden,
                         ::testing::Values(1, 2, 3, 4));

TEST(OnlineGolden, SingleFlowAtRealCapacity) {
  const Instance inst = testing::remote_tiny_instance();
  OnlineConfig cfg;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 1.0;
  expect_golden("Flow.SingleFlowAtRealCapacity", inst, cfg);
}

TEST(OnlineGolden, OversubscribedFlowsStretch) {
  const Instance inst = medium_instance(3, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 64.0;
  expect_golden("Flow.Oversubscription64", inst, cfg);
}

TEST(OnlineGolden, CapacityLossMidFlow) {
  const Instance inst = testing::four_site_flow_instance();
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x10ad;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 1.0;
  cfg.faults = testing::mid_flow_capacity_loss_trace();
  expect_golden("Flow.CapacityLossMidFlow", inst, cfg);
}

// --- kernel edge regimes (online_test.cpp, event_kernel_test.cpp) ----------

TEST(OnlineGolden, PublishedUtilizationRun) {
  StreamWorkloadConfig wc;
  wc.sites = 16;
  wc.queries = 200;
  wc.max_demands = 2;
  const Instance inst = stream_instance(wc, 4);
  OnlineConfig cfg;
  cfg.arrival_rate = 50.0;
  expect_golden("Online.PublishedUtilization", inst, cfg);
}

TEST(OnlineGolden, FaultAtArrivalInstant) {
  const Instance inst = testing::one_site_instance(0.05, /*deadline=*/2.0);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;
  cfg.faults.events.push_back(
      FaultEvent{1.0, FaultKind::kSiteDown, 0, kInvalidEdge, 0.0});
  expect_golden("Kernel.FaultAtArrivalInstant", inst, cfg);
}

TEST(OnlineGolden, StaleCompletionsAfterCrash) {
  const Instance inst = testing::one_site_instance(1.0, /*deadline=*/10.0);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;
  cfg.repair_on_failure = false;
  cfg.faults.events.push_back(
      FaultEvent{2.0, FaultKind::kSiteDown, 0, kInvalidEdge, 0.0});
  expect_golden("Kernel.StaleCompletionsAfterCrash", inst, cfg);
}

TEST(OnlineGolden, HorizonLongerThanConcurrency) {
  const Instance inst = medium_instance(3, /*f_max=*/2);
  expect_golden("Kernel.HorizonLongerThanConcurrency", inst, OnlineConfig{});
}

// --- journals and alert streams (obs suites) -------------------------------

TEST(OnlineGolden, RecorderWithEveryOtherFacet) {
  const Instance inst = medium_instance(11, /*f_max=*/3);
  Facets f;
  f.metrics_trace_audit = true;
  f.recorder = true;
  expect_golden("Obs.RecorderWithEveryOtherFacet", inst,
                testing::faulted_config(inst), nullptr, f);
}

TEST(OnlineGolden, AllFiveFacets) {
  const Instance inst = medium_instance(11, /*f_max=*/3);
  Facets f;
  f.metrics_trace_audit = true;
  f.recorder = true;
  f.watchdog = obs::WatchdogConfig{};
  expect_golden("Obs.AllFiveFacets", inst, testing::faulted_config(inst),
                nullptr, f);
}

TEST(OnlineGolden, SensitiveWatchdogWithFaults) {
  const Instance inst = medium_instance(11, /*f_max=*/3);
  OnlineConfig cfg = testing::faulted_config(inst);
  cfg.arrival_rate = 40.0;
  Facets f;
  f.recorder = true;
  f.watchdog = testing::sensitive_watchdog_config();
  expect_golden("Watchdog.SensitiveWithFaults", inst, cfg, nullptr, f);
}

TEST(OnlineGolden, FaultedJournal) {
  const Instance inst = medium_instance(11, /*f_max=*/3);
  Facets f;
  f.recorder = true;
  expect_golden("Postmortem.FaultedJournal", inst,
                testing::faulted_config(inst), nullptr, f);
}

TEST(OnlineGolden, RowNamesAreUnique) {
  std::set<std::string> names;
  for (const GoldenRow& row : kGolden) {
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate row " << row.name;
  }
}

}  // namespace
}  // namespace edgerep
