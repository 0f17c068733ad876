// RouteTable: rows computed on first use must route exactly like a fresh
// Dijkstra tree, whatever order the rows are requested in, on graphs with
// parallel edges (the cheapest one wins, first cheapest on a tie) and
// unreachable targets.
#include "net/routes.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/shortest_path.h"
#include "util/rng.h"

namespace edgerep {
namespace {

// Oracle: the edge sequence of a node path, taking the cheapest parallel
// edge at each hop (first cheapest wins).
std::vector<EdgeId> reference_path_edges(const Graph& g,
                                         const std::vector<NodeId>& nodes) {
  std::vector<EdgeId> edges;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    EdgeId best = kInvalidEdge;
    for (const HalfEdge& he : g.neighbors(nodes[i])) {
      if (he.to != nodes[i + 1]) continue;
      if (best == kInvalidEdge || he.delay < g.edge(best).delay) {
        best = he.edge;
      }
    }
    EXPECT_NE(best, kInvalidEdge) << "broken shortest path";
    edges.push_back(best);
  }
  return edges;
}

// Sparse random graph without a connectivity repair (so some targets are
// unreachable), plus parallel copies of a third of its edges: some cheaper,
// some dearer and some at an equal delay (the tie-break case).
Graph random_multigraph(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) g.add_edge(u, v, rng.uniform(0.05, 2.0));
    }
  }
  const std::size_t base = g.num_edges();
  for (EdgeId e = 0; e < base; ++e) {
    if (!rng.bernoulli(1.0 / 3.0)) continue;
    const Edge copy = g.edge(e);
    const double scale =
        rng.uniform_u64(0, 2) == 0 ? 1.0 : rng.uniform(0.5, 1.5);
    g.add_edge(copy.u, copy.v, copy.delay * scale);
  }
  return g;
}

std::vector<NodeId> random_sources(std::size_t n, std::size_t count,
                                   Rng& rng) {
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<NodeId>(rng.uniform_u64(0, n - 1)));
  }
  return sources;
}

TEST(RouteTable, EdgePathMatchesDijkstraPathEdges) {
  std::size_t unreachable = 0;
  std::size_t parallel_hops = 0;  // hops with a choice of edges
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    Graph g = random_multigraph(48, 0.06, rng);
    if (seed % 2 == 0) g.seal();  // CSR and list adjacency route alike
    const std::vector<NodeId> sources = random_sources(48, 12, rng);
    RouteTable table(g, sources);
    std::vector<EdgeId> out;
    for (std::size_t r = 0; r < sources.size(); ++r) {
      const ShortestPathTree tree = dijkstra(g, sources[r]);
      for (NodeId t = 0; t < g.num_nodes(); ++t) {
        const bool ok = table.edge_path(r, t, out);
        if (!tree.reachable(t)) {
          EXPECT_FALSE(ok) << "seed " << seed << " row " << r << " -> " << t;
          EXPECT_TRUE(out.empty());
          ++unreachable;
          continue;
        }
        ASSERT_TRUE(ok) << "seed " << seed << " row " << r << " -> " << t;
        EXPECT_EQ(out, reference_path_edges(g, tree.path_to(t)))
            << "seed " << seed << " row " << r << " -> " << t;
        for (const EdgeId e : out) {
          const Edge& hop = g.edge(e);
          std::size_t choices = 0;
          for (const HalfEdge& he : g.neighbors(hop.u)) {
            choices += he.to == hop.v ? 1 : 0;
          }
          parallel_hops += choices > 1 ? 1 : 0;
        }
      }
    }
  }
  // The seeds cover both cases the oracle exists for.
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(parallel_hops, 0u);
}

TEST(RouteTable, ShuffledRowOrderGivesTheSamePaths) {
  Rng rng(99);
  Graph g = random_multigraph(40, 0.08, rng);
  g.seal();
  const std::vector<NodeId> sources = random_sources(40, 16, rng);
  RouteTable in_order(g, sources);
  RouteTable shuffled(g, sources);
  EXPECT_EQ(shuffled.rows_computed(), 0u);  // nothing runs up front

  std::vector<std::vector<std::vector<EdgeId>>> want(sources.size());
  for (std::size_t r = 0; r < sources.size(); ++r) {
    want[r].resize(g.num_nodes());
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      in_order.edge_path(r, t, want[r][t]);
    }
  }
  // Every (row, target) pair in a scrambled order, rows interleaved.
  std::vector<std::size_t> pairs(sources.size() * g.num_nodes());
  std::iota(pairs.begin(), pairs.end(), std::size_t{0});
  rng.shuffle(std::span<std::size_t>(pairs));
  std::vector<EdgeId> out;
  for (const std::size_t p : pairs) {
    const std::size_t r = p / g.num_nodes();
    const NodeId t = static_cast<NodeId>(p % g.num_nodes());
    shuffled.edge_path(r, t, out);
    EXPECT_EQ(out, want[r][t]) << "row " << r << " -> " << t;
  }
}

TEST(RouteTable, ComputesOnlyTheRowsItUses) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<NodeId> sources = {0, 1, 2, 3};
  RouteTable table(g, sources);
  std::vector<EdgeId> out;
  EXPECT_TRUE(table.edge_path(2, 2, out));  // to itself: no Dijkstra
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(table.rows_computed(), 0u);
  EXPECT_TRUE(table.edge_path(3, 0, out));
  EXPECT_EQ(out, (std::vector<EdgeId>{2, 1, 0}));
  EXPECT_TRUE(table.edge_path(3, 1, out));  // row 3 again: reused
  EXPECT_EQ(out, (std::vector<EdgeId>{2, 1}));
  EXPECT_EQ(table.rows_computed(), 1u);
  EXPECT_TRUE(table.edge_path(0, 3, out));
  EXPECT_EQ(out, (std::vector<EdgeId>{0, 1, 2}));
  EXPECT_EQ(table.rows_computed(), 2u);
}

TEST(RouteTable, UnreachableTargetReturnsFalse) {
  Graph g(4);  // two components: {0, 1} and {2, 3}
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<NodeId> sources = {0, 3};
  RouteTable table(g, sources);
  std::vector<EdgeId> out = {7, 7};
  EXPECT_FALSE(table.edge_path(0, 2, out));
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(table.edge_path(1, 1, out));
  EXPECT_TRUE(table.edge_path(1, 2, out));
  EXPECT_EQ(out, (std::vector<EdgeId>{1}));
}

TEST(RouteTable, OutOfRangeRowTargetOrSourceThrows) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const std::vector<NodeId> sources = {0, 2};
  RouteTable table(g, sources);
  std::vector<EdgeId> out;
  EXPECT_THROW(table.edge_path(2, 1, out), std::out_of_range);
  EXPECT_THROW(table.edge_path(0, 3, out), std::out_of_range);
  const std::vector<NodeId> bad = {0, 3};
  EXPECT_THROW(RouteTable(g, bad), std::invalid_argument);
  RouteTable empty;
  EXPECT_THROW(empty.edge_path(0, 0, out), std::out_of_range);
}

}  // namespace
}  // namespace edgerep
