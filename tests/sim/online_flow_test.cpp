// The flow-backend contract of run_online (cfg.network == kFlow):
//
//  * Contention-free limit: with oversubscription == 0 every link is
//    effectively infinite, so each flow runs at exactly its unit rate cap
//    and completes at the table-priced instant — the OnlineResult must be
//    BIT-identical to the kTable backend, with and without fault traces.
//  * Contended regime: the predicted-vs-actual gap stats must report the
//    stretch.
//  * Capacity-loss faults mid-flow throttle the affected links and stretch
//    live completions past their prediction.
//
// The golden rows Flow.* (sim/online_golden_test.cpp) freeze each of these
// runs' result hash and gap stats.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "helpers/fixtures.h"
#include "helpers/online_scenarios.h"
#include "sim/online.h"

namespace edgerep {
namespace {

using testing::medium_instance;
using testing::stress_trace;
using testing::TinyFixture;

#define EXPECT_BITEQ(x, y)                                   \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x),                 \
            std::bit_cast<std::uint64_t>(y))                 \
      << #x " differs: " << (x) << " vs " << (y)

/// Field-by-field bitwise comparison of the result-contract surface
/// (kernel_stats and flow_gap are diagnostics, not contract).
void expect_bit_identical(const OnlineResult& a, const OnlineResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].query, b.outcomes[i].query);
    EXPECT_BITEQ(a.outcomes[i].arrival_time, b.outcomes[i].arrival_time);
    EXPECT_EQ(a.outcomes[i].admitted, b.outcomes[i].admitted) << "query " << i;
    EXPECT_BITEQ(a.outcomes[i].completion_time, b.outcomes[i].completion_time);
    EXPECT_EQ(a.outcomes[i].failed_by_fault, b.outcomes[i].failed_by_fault);
  }
  EXPECT_EQ(a.admitted_queries, b.admitted_queries);
  EXPECT_BITEQ(a.admitted_volume, b.admitted_volume);
  EXPECT_BITEQ(a.throughput, b.throughput);
  EXPECT_BITEQ(a.peak_utilization, b.peak_utilization);
  ASSERT_EQ(a.replica_sites.size(), b.replica_sites.size());
  for (std::size_t n = 0; n < a.replica_sites.size(); ++n) {
    EXPECT_EQ(a.replica_sites[n], b.replica_sites[n]) << "dataset " << n;
  }
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied);
  EXPECT_EQ(a.queries_failed_by_fault, b.queries_failed_by_fault);
  EXPECT_EQ(a.demands_relocated, b.demands_relocated);
  EXPECT_EQ(a.replicas_lost_to_faults, b.replicas_lost_to_faults);
  EXPECT_EQ(a.slo.admitted_queries, b.slo.admitted_queries);
  EXPECT_EQ(a.slo.deadline_hits, b.slo.deadline_hits);
  EXPECT_BITEQ(a.slo.hit_ratio, b.slo.hit_ratio);
  EXPECT_BITEQ(a.slo.p50_slack, b.slo.p50_slack);
  EXPECT_BITEQ(a.slo.p95_slack, b.slo.p95_slack);
  EXPECT_BITEQ(a.slo.p99_slack, b.slo.p99_slack);
  ASSERT_EQ(a.slo.per_site.size(), b.slo.per_site.size());
  for (std::size_t s = 0; s < a.slo.per_site.size(); ++s) {
    EXPECT_EQ(a.slo.per_site[s].site, b.slo.per_site[s].site);
    EXPECT_EQ(a.slo.per_site[s].demands, b.slo.per_site[s].demands);
    EXPECT_EQ(a.slo.per_site[s].deadline_hits,
              b.slo.per_site[s].deadline_hits);
    EXPECT_BITEQ(a.slo.per_site[s].p50_slack, b.slo.per_site[s].p50_slack);
    EXPECT_BITEQ(a.slo.per_site[s].p95_slack, b.slo.per_site[s].p95_slack);
    EXPECT_BITEQ(a.slo.per_site[s].p99_slack, b.slo.per_site[s].p99_slack);
  }
  EXPECT_EQ(online_result_hash(a), online_result_hash(b));
}

/// The tentpole acceptance check: run the delay table and the flow backend
/// at oversubscription 0 (infinite capacity) and demand a bit-identical
/// result.  Also pins the gap stats a contention-free run must report:
/// every flow at its predicted instant, zero stretch.
void expect_contention_free_identity(const Instance& inst, OnlineConfig cfg) {
  cfg.oversubscription = 0.0;
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  cfg.network = OnlineNetwork::kFlow;
  const OnlineResult flow = run_online(inst, cfg);
  expect_bit_identical(table, flow);

  // Table runs never touch the flow engine.
  EXPECT_EQ(table.flow_gap.flows_routed, 0u);
  EXPECT_EQ(table.flow_gap.queries_compared, 0u);
  // Contention-free flows hit their prediction exactly.
  if (flow.admitted_queries > 0) {
    EXPECT_GT(flow.flow_gap.flows_routed, 0u);
    EXPECT_GT(flow.flow_gap.queries_compared, 0u);
  }
  EXPECT_EQ(flow.flow_gap.predicted_hits, flow.flow_gap.actual_hits);
  EXPECT_EQ(flow.flow_gap.gap_breaches, 0u);
  EXPECT_BITEQ(flow.flow_gap.max_stretch, 0.0);
  EXPECT_BITEQ(flow.flow_gap.mean_stretch, 0.0);
}

class OnlineFlowIdentity : public ::testing::TestWithParam<int> {};

TEST_P(OnlineFlowIdentity, ContentionFreeMatchesTableFaultFree) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.seed = 0xF10 + seed;
  expect_contention_free_identity(inst, cfg);
}

TEST_P(OnlineFlowIdentity, ContentionFreeMatchesTableWithFaults) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;  // dense horizon: faults land on live flows
  cfg.faults = stress_trace(inst, seed * 271 + 9);
  expect_contention_free_identity(inst, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineFlowIdentity,
                         ::testing::Values(1, 2, 3, 4));

// Two sites with a hopeless local option: the lone query must evaluate at
// the remote data center, so its transfer routes as a real flow.  A single
// flow never shares a link and its unit rate cap binds below every link
// capacity, so even at real capacities (oversubscription 1) the flow
// backend must reproduce the table result exactly.
TEST(OnlineFlow, SingleFlowMatchesTableDelayAtRealCapacity) {
  const Instance inst = testing::remote_tiny_instance();
  OnlineConfig cfg;
  cfg.oversubscription = 1.0;
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  cfg.network = OnlineNetwork::kFlow;
  const OnlineResult flow = run_online(inst, cfg);
  expect_bit_identical(table, flow);
  ASSERT_EQ(flow.admitted_queries, 1u);
  EXPECT_GT(flow.flow_gap.flows_routed, 0u);
  EXPECT_BITEQ(flow.flow_gap.max_stretch, 0.0);
}

// Scarce links (oversubscription 64 shrinks every capacity below the unit
// rate cap) force concurrent flows to stretch past their prediction.  The
// gap rollup must show the contention: positive stretch and no more actual
// than predicted hits (a flow can only finish at or after its table-priced
// instant).
TEST(OnlineFlow, OversubscriptionStretchesCompletions) {
  const Instance inst = medium_instance(3, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 64.0;
  const OnlineResult flow = run_online(inst, cfg);

  EXPECT_GT(flow.flow_gap.flows_routed, 0u);
  EXPECT_GT(flow.flow_gap.rate_changes, flow.flow_gap.flows_routed)
      << "shared scarce links must trigger mid-flight re-fills";
  EXPECT_GT(flow.flow_gap.max_stretch, 0.0);
  EXPECT_GT(flow.flow_gap.mean_stretch, 0.0);
  EXPECT_LE(flow.flow_gap.actual_hits, flow.flow_gap.predicted_hits);
  EXPECT_EQ(flow.flow_gap.queries_compared, flow.slo.admitted_queries);

  // And the stretched run must genuinely differ from the table pricing.
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  EXPECT_NE(online_result_hash(table), online_result_hash(flow));
}

// A capacity-loss fault mid-flow throttles the struck site's links (gnp
// edges carry unit capacity, the loss scales them to 0.1), so live flows
// through it stretch past their prediction; the restore lets later flows
// run clean again.  Arrivals are sparse enough that the unfaulted run has
// no contention at all — the stretch is attributable to the fault alone.
TEST(OnlineFlow, CapacityLossMidFlowStretchesCompletions) {
  const Instance inst = testing::four_site_flow_instance();
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x10ad;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 1.0;

  const OnlineResult clean = run_online(inst, cfg);

  cfg.faults = testing::mid_flow_capacity_loss_trace();
  validate_fault_trace(inst, cfg.faults);
  const OnlineResult faulted = run_online(inst, cfg);

  EXPECT_GT(faulted.flow_gap.max_stretch, clean.flow_gap.max_stretch);
  EXPECT_GT(faulted.flow_gap.max_stretch, 0.0);
}

TEST(OnlineFlow, RejectsBadOversubscription) {
  const Instance inst = TinyFixture::make();
  OnlineConfig cfg;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = -1.0;
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
  cfg.oversubscription = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
  cfg.oversubscription = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
}

// Repeating a flow run must reproduce the result and its hash exactly —
// the property the CI nightly smoke asserts across two CLI invocations.
TEST(OnlineFlow, FlowRunIsDeterministic) {
  const Instance inst = medium_instance(17, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 8.0;
  cfg.faults = stress_trace(inst, 404);
  const OnlineResult a = run_online(inst, cfg);
  const OnlineResult b = run_online(inst, cfg);
  expect_bit_identical(a, b);
  EXPECT_EQ(a.flow_gap.rate_changes, b.flow_gap.rate_changes);
}

}  // namespace
}  // namespace edgerep
