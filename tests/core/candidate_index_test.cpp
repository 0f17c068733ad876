// CandidateIndex construction: the parallel two-sweep build is byte-identical
// to the serial one, and the CSR layout holds up at its edges — empty rows,
// multi-demand queries evaluated against one home column, no queries at all.
#include "core/candidate_index.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "cloud/delay.h"
#include "core/appro.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "workload/arrival_gen.h"

namespace edgerep {
namespace {

/// cl (site 0, d=0.2 s/GB) --0.1-- sw --1.0-- dc (site 1, d=0.05 s/GB), the
/// TinyFixture geometry.  With α = 0.5 a V GB demand costs 0.2·V at cl and
/// 0.6·V at dc when homed at cl, 0.75·V at cl and 0.05·V at dc when homed
/// at dc.
Instance line_instance(const std::vector<double>& volumes,
                       const std::vector<SiteId>& homes, double deadline) {
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  const NodeId sw = g.add_node(NodeRole::kSwitch);
  const NodeId dc = g.add_node(NodeRole::kDataCenter);
  g.add_edge(cl, sw, 0.1);
  g.add_edge(sw, dc, 1.0);
  Instance inst(std::move(g));
  inst.add_site(cl, 10.0, 0.2);
  const SiteId s_dc = inst.add_site(dc, 100.0, 0.05);
  std::vector<DatasetDemand> demands;
  for (const double v : volumes) {
    demands.push_back({inst.add_dataset(v, s_dc), 0.5});
  }
  for (const SiteId home : homes) {
    inst.add_query(home, 1.0, deadline, demands);
  }
  inst.finalize();
  return inst;
}

std::vector<SiteId> row_sites(const CandidateIndex& index, QueryId m,
                              std::size_t di) {
  const CandidateSoA row = index.soa(m, di);
  return {row.site.begin(), row.site.end()};
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(CandidateIndexTest, ParallelBuildIsByteIdenticalToSerial) {
  StreamWorkloadConfig cfg;
  cfg.sites = 96;
  cfg.queries = 600;
  cfg.datasets = 16;
  cfg.max_demands = 3;
  cfg.deadline_per_gb = {0.05, 0.6};  // tight: rows of every length
  const Instance inst = stream_instance(cfg, 17);
  const CandidateIndex par(inst, /*parallel=*/true);
  const CandidateIndex ser(inst, /*parallel=*/false);
  ASSERT_EQ(par.size(), ser.size());
  std::size_t partial = 0;
  for (const Query& q : inst.queries()) {
    for (std::size_t di = 0; di < q.demands.size(); ++di) {
      const CandidateSoA a = par.soa(q.id, di);
      const CandidateSoA b = ser.soa(q.id, di);
      // Equal row lengths at every slot ⇔ equal CSR offsets.
      ASSERT_EQ(a.size(), b.size()) << "query " << q.id << " demand " << di;
      EXPECT_EQ(a.site.data() - par.soa(0, 0).site.data(),
                b.site.data() - ser.soa(0, 0).site.data());
      EXPECT_TRUE(same_bytes(a.site, b.site));
      EXPECT_TRUE(same_bytes(a.inv_avail, b.inv_avail));
      EXPECT_TRUE(same_bytes(a.dod, b.dod));
      EXPECT_EQ(par.need(q.id, di), ser.need(q.id, di));
      if (a.size() > 0 && a.size() < cfg.sites) ++partial;
    }
  }
  EXPECT_GT(partial, 0u);  // deadline pruning actually bites
}

TEST(CandidateIndexTest, MultiDemandQueriesShareOneHomeColumn) {
  // Three demands (4, 1, 8 GB) per query, one query homed at each site,
  // deadline 2.5 s.  Home cl: 0.8/0.2/1.6 s at cl, 2.4/0.6/4.8 s at dc.
  // Home dc: 3.0/0.75/6.0 s at cl, 0.2/0.05/0.4 s at dc.
  const Instance inst = line_instance({4.0, 1.0, 8.0}, {0, 1}, 2.5);
  for (const bool parallel : {false, true}) {
    const CandidateIndex index(inst, parallel);
    using Sites = std::vector<SiteId>;
    EXPECT_EQ(row_sites(index, 0, 0), (Sites{0, 1}));
    EXPECT_EQ(row_sites(index, 0, 1), (Sites{0, 1}));
    EXPECT_EQ(row_sites(index, 0, 2), (Sites{0}));
    EXPECT_EQ(row_sites(index, 1, 0), (Sites{1}));
    EXPECT_EQ(row_sites(index, 1, 1), (Sites{0, 1}));
    EXPECT_EQ(row_sites(index, 1, 2), (Sites{1}));
    EXPECT_EQ(index.size(), 9u);
    for (const Query& q : inst.queries()) {
      for (std::size_t di = 0; di < q.demands.size(); ++di) {
        const CandidateSoA row = index.soa(q.id, di);
        for (std::size_t i = 0; i < row.size(); ++i) {
          const double delay =
              evaluation_delay(inst, q, q.demands[di], row.site[i]);
          EXPECT_EQ(row.dod[i], delay / q.deadline);
        }
      }
    }
  }
}

class CandidateIndexAuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::audit_log().clear();
    obs::set_audit_enabled(true);
  }
  void TearDown() override {
    obs::set_audit_enabled(false);
    obs::audit_log().clear();
    obs::init_from_env();
  }
};

TEST_F(CandidateIndexAuditTest, EmptyRowClassifiesAsNoDeadlineFeasibleSite) {
  // Home cl, deadline 1 s: the 40 GB middle demand takes 8 s at cl and
  // 24 s at dc, so its row is empty between two non-empty ones.
  const Instance inst = line_instance({4.0, 40.0, 4.0}, {0}, 1.0);
  const CandidateIndex index(inst);
  EXPECT_EQ(index.soa(0, 0).size(), 1u);
  EXPECT_EQ(index.soa(0, 1).size(), 0u);
  EXPECT_EQ(index.soa(0, 2).size(), 1u);

  ApproOptions opts;
  opts.atomic_queries = false;  // keep admitting past the empty row
  const ApproResult res = appro_g(inst, opts);
  EXPECT_EQ(res.demands_assigned, 2u);
  EXPECT_EQ(res.demands_rejected, 1u);
  std::vector<obs::AuditEntry> entries;
  for (const obs::AuditEntry& e : obs::audit_log().snapshot()) {
    if (std::string(e.algorithm) == "appro") entries.push_back(e);
  }
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].admitted);
  EXPECT_FALSE(entries[1].admitted);
  EXPECT_EQ(entries[1].reason, obs::AuditReason::kNoDeadlineFeasibleSite);
  EXPECT_TRUE(entries[2].admitted);
}

TEST(CandidateIndexTest, ZeroQueryInstance) {
  const Instance inst = line_instance({4.0}, {}, 1.0);
  const CandidateIndex index(inst);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.avail().size(), 2u);
  const ApproResult res = appro_g(inst);
  EXPECT_EQ(res.demands_assigned, 0u);
  EXPECT_EQ(res.demands_rejected, 0u);
}

}  // namespace
}  // namespace edgerep
