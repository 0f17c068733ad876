// The transactional admission engine: DualState savepoint/rollback units
// and equivalence of the savepoint-based run_appro against the legacy
// copy-based implementation (kept behind ApproOptions::Txn::kCopy) — plans,
// metrics, and dual objectives must be identical on seeded special- and
// general-case instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "baselines/greedy.h"
#include "core/appro.h"
#include "core/candidate_index.h"
#include "core/primal_dual.h"
#include "helpers/fixtures.h"

namespace edgerep {
namespace {

// --- DualState savepoints -------------------------------------------------

TEST(DualSavepoint, RollbackRestoresAllVariablesExactly) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  DualState duals(inst);
  duals.raise_theta(0, 3.0);
  duals.set_y(0, 0.25);
  const double theta0 = duals.theta(0);
  const double y0 = duals.y(0);
  const double mu0 = duals.mu(0);

  const auto sp = duals.savepoint();
  duals.raise_theta(0, 1.7);
  duals.raise_theta(1, 2.9);
  duals.raise_mu(0);
  duals.set_y(0, 4.5);
  EXPECT_EQ(duals.undo_log_size(), 4u);

  duals.rollback_to(sp);
  EXPECT_EQ(duals.theta(0), theta0);  // bit-exact: previous values journaled
  EXPECT_EQ(duals.theta(1), 0.0);
  EXPECT_EQ(duals.y(0), y0);
  EXPECT_EQ(duals.mu(0), mu0);
  EXPECT_EQ(duals.undo_log_size(), 0u);
}

TEST(DualSavepoint, NestedSavepointsUnwindInLifoOrder) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  DualState duals(inst);

  const auto sp_outer = duals.savepoint();
  duals.raise_theta(0, 1.0);
  const double mid_theta = duals.theta(0);

  const auto sp_inner = duals.savepoint();
  duals.raise_theta(0, 1.0);
  duals.raise_mu(0);

  duals.rollback_to(sp_inner);
  EXPECT_EQ(duals.theta(0), mid_theta);
  EXPECT_EQ(duals.mu(0), 0.0);

  duals.rollback_to(sp_outer);
  EXPECT_EQ(duals.theta(0), 0.0);
}

TEST(DualSavepoint, CommitStopsJournalingAndInvalidatesSavepoints) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  DualState duals(inst);
  const auto sp = duals.savepoint();
  duals.raise_mu(0);
  const auto stale = duals.savepoint();
  duals.rollback_to(sp);
  duals.raise_mu(0);
  duals.commit();
  EXPECT_EQ(duals.undo_log_size(), 0u);
  duals.raise_mu(0);  // outside any transaction: not journaled
  EXPECT_EQ(duals.undo_log_size(), 0u);
  EXPECT_THROW(duals.rollback_to(stale), std::invalid_argument);
}

// --- candidate index ------------------------------------------------------

TEST(CandidateIndexTest, MatchesNaiveFeasibilityAndDelay) {
  const Instance inst = testing::medium_instance(31, /*f_max=*/4);
  const CandidateIndex index(inst);
  for (const Query& q : inst.queries()) {
    for (std::size_t di = 0; di < q.demands.size(); ++di) {
      const DatasetDemand& dd = q.demands[di];
      EXPECT_EQ(index.need(q.id, di), resource_demand(inst, q, dd));
      const CandidateSoA row = index.soa(q.id, di);
      ASSERT_EQ(row.inv_avail.size(), row.size());
      ASSERT_EQ(row.dod.size(), row.size());
      std::size_t c = 0;
      for (const Site& s : inst.sites()) {
        if (!deadline_ok(inst, q, dd, s.id)) continue;
        ASSERT_LT(c, row.size());
        EXPECT_EQ(row.site[c], s.id);
        if (c > 0) {
          EXPECT_GT(row.site[c], row.site[c - 1]);  // ascending site order
        }
        // Bitwise: the index evaluates the same FP expression.
        EXPECT_EQ(row.dod[c],
                  evaluation_delay(inst, q, dd, s.id) / q.deadline);
        EXPECT_EQ(row.inv_avail[c], 1.0 / std::max(s.available, 1e-12));
        ++c;
      }
      EXPECT_EQ(c, row.size());  // no infeasible entries
    }
  }
}

// --- savepoint vs copy equivalence ---------------------------------------

void expect_identical(const ApproResult& a, const ApproResult& b,
                      const Instance& inst, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_EQ(a.demands_assigned, b.demands_assigned);
  EXPECT_EQ(a.demands_rejected, b.demands_rejected);
  for (const Dataset& d : inst.datasets()) {
    EXPECT_EQ(a.plan.replica_sites(d.id), b.plan.replica_sites(d.id))
        << "dataset " << d.id;
  }
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      EXPECT_EQ(a.plan.assignment(q.id, dd.dataset),
                b.plan.assignment(q.id, dd.dataset))
          << "query " << q.id << " dataset " << dd.dataset;
    }
  }
  for (const Site& s : inst.sites()) {
    EXPECT_EQ(a.plan.load(s.id), b.plan.load(s.id)) << "site " << s.id;
    EXPECT_EQ(a.duals.theta(s.id), b.duals.theta(s.id)) << "site " << s.id;
  }
  for (const Query& q : inst.queries()) {
    EXPECT_EQ(a.duals.y(q.id), b.duals.y(q.id)) << "query " << q.id;
    EXPECT_EQ(a.duals.mu(q.id), b.duals.mu(q.id)) << "query " << q.id;
  }
  EXPECT_EQ(a.dual_objective, b.dual_objective);
  EXPECT_EQ(a.metrics.admitted_volume, b.metrics.admitted_volume);
  EXPECT_EQ(a.metrics.assigned_volume, b.metrics.assigned_volume);
  EXPECT_EQ(a.metrics.admitted_queries, b.metrics.admitted_queries);
  EXPECT_EQ(a.metrics.replicas_placed, b.metrics.replicas_placed);
  EXPECT_EQ(a.metrics.utilization, b.metrics.utilization);
}

TEST(TxnEquivalence, SpecialCaseSavepointMatchesCopy) {
  ApproOptions sp_opts;
  sp_opts.txn = ApproOptions::Txn::kSavepoint;
  ApproOptions copy_opts;
  copy_opts.txn = ApproOptions::Txn::kCopy;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = testing::small_instance(seed, /*f_max=*/1);
    expect_identical(appro_s(inst, sp_opts), appro_s(inst, copy_opts), inst,
                     seed);
  }
}

TEST(TxnEquivalence, GeneralCaseSavepointMatchesCopy) {
  ApproOptions sp_opts;
  sp_opts.txn = ApproOptions::Txn::kSavepoint;
  ApproOptions copy_opts;
  copy_opts.txn = ApproOptions::Txn::kCopy;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/5);
    expect_identical(appro_g(inst, sp_opts), appro_g(inst, copy_opts), inst,
                     seed);
  }
}

TEST(TxnEquivalence, HoldsAcrossOrdersAndStrictReuse) {
  using Order = ApproOptions::Order;
  for (const Order order :
       {Order::kInput, Order::kVolumeAsc, Order::kDeadlineAsc,
        Order::kRandom}) {
    for (const bool strict : {false, true}) {
      ApproOptions sp_opts;
      sp_opts.order = order;
      sp_opts.strict_reuse = strict;
      ApproOptions copy_opts = sp_opts;
      copy_opts.txn = ApproOptions::Txn::kCopy;
      const Instance inst = testing::medium_instance(40, /*f_max=*/4);
      expect_identical(appro_g(inst, sp_opts), appro_g(inst, copy_opts), inst,
                       40);
    }
  }
}

TEST(TxnEquivalence, RejectionHeavyInstancesStayIdentical) {
  // Tight capacity forces many rollbacks — the path the undo log must get
  // right.  Shrink site capacity so a large share of queries is rejected.
  WorkloadConfig cfg;
  cfg.network_size = 24;
  cfg.min_queries = 40;
  cfg.max_queries = 40;
  cfg.max_datasets_per_query = 5;
  cfg.dc_capacity = {20.0, 40.0};
  cfg.cl_capacity = {2.0, 4.0};
  ApproOptions sp_opts;
  ApproOptions copy_opts;
  copy_opts.txn = ApproOptions::Txn::kCopy;
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    const Instance inst = generate_instance(cfg, seed);
    const ApproResult a = appro_g(inst, sp_opts);
    const ApproResult b = appro_g(inst, copy_opts);
    EXPECT_GT(a.demands_rejected, 0u) << "seed " << seed
                                      << ": instance not rejection-heavy";
    expect_identical(a, b, inst, seed);
  }
}

// --- greedy savepoint wiring ---------------------------------------------

TEST(GreedyAtomic, AllOrNothingPerQueryAndValid) {
  GreedyOptions opts;
  opts.atomic_queries = true;
  for (std::uint64_t seed = 3; seed <= 8; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/4);
    const BaselineResult r = greedy_g(inst, opts);
    EXPECT_TRUE(validate(r.plan).ok) << "seed " << seed;
    for (const Query& q : inst.queries()) {
      const std::size_t assigned = r.plan.assigned_demands(q.id);
      EXPECT_TRUE(assigned == 0 || assigned == q.demands.size())
          << "seed " << seed << " query " << q.id;
    }
    EXPECT_NEAR(r.metrics.admitted_volume, r.metrics.assigned_volume, 1e-9);
  }
}

TEST(GreedyAtomic, DefaultModeUnchanged) {
  // The paper-faithful default still strands partial queries; atomicity is
  // opt-in and must not leak into the default results.
  const Instance inst = testing::medium_instance(9, /*f_max=*/4);
  const BaselineResult a = greedy_g(inst);
  const BaselineResult b = greedy_g(inst, GreedyOptions{});
  EXPECT_EQ(a.demands_assigned, b.demands_assigned);
  EXPECT_EQ(a.metrics.assigned_volume, b.metrics.assigned_volume);
}

}  // namespace
}  // namespace edgerep
