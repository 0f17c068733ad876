// Shortest-path edge routing shared by the testbed simulator and the
// online flow backend.
//
// The delay model only needs minimum *delays* (DelayTable); the flow-level
// network model additionally needs the concrete edge sequence each transfer
// occupies.  `RouteTable` keeps one shortest-path parent forest per source
// (the placement sites' nodes, mirroring DelayTable rows) and extracts the
// edge ids of a source→target path on demand, picking the cheapest parallel
// edge at every hop (first cheapest wins), so both transfer models route
// identically.
//
// Rows are computed on first use: a flow run routes only from the sites
// that evaluate transfers, so the table runs (and stores) only those
// rows' Dijkstras.  Each row is the same DijkstraWorkspace run an eager
// table would make, so its parents — and every extracted path — do not
// depend on which rows were requested before it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.h"
#include "net/shortest_path.h"

namespace edgerep {

/// Per-source shortest-path parent forests with edge-path extraction.
/// Row r is the route forest of sources[r]; a table built from the
/// placement sites' nodes has row r = site r.  The workspace engine's
/// strict (dist, node) tie-break fixes every parent.  Not thread-safe:
/// edge_path may compute a row.
class RouteTable {
 public:
  RouteTable() = default;

  /// Routes over `g` (which must outlive the table) from `sources`.  Runs
  /// no Dijkstra.  Throws std::invalid_argument when a source is out of
  /// range.
  RouteTable(const Graph& g, std::span<const NodeId> sources);

  [[nodiscard]] std::size_t rows() const noexcept { return sources_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return n_; }
  [[nodiscard]] std::span<const NodeId> sources() const noexcept {
    return sources_;
  }
  /// Rows whose Dijkstra has run so far.
  [[nodiscard]] std::size_t rows_computed() const noexcept {
    return parent_.size() / (n_ == 0 ? 1 : n_);
  }

  /// Edge ids of the shortest path source(row) → target, in travel order.
  /// `out` is cleared and refilled (reusing its capacity keeps repeated
  /// extraction allocation-free).  Empty when target == source(row).
  /// Returns false (with `out` cleared) when target is unreachable.
  /// Throws std::out_of_range when row or target is out of range.
  bool edge_path(std::size_t row, NodeId target, std::vector<EdgeId>& out);

 private:
  static constexpr std::uint32_t kNotComputed = static_cast<std::uint32_t>(-1);

  /// The parent forest of `row`, running its Dijkstra on first use.
  const NodeId* row_parents(std::size_t row);

  const Graph* g_ = nullptr;
  std::size_t n_ = 0;
  std::vector<NodeId> sources_;
  std::vector<std::uint32_t> row_at_;  ///< row -> index among computed rows
  std::vector<NodeId> parent_;         ///< computed rows × n_, compute order
  DijkstraWorkspace ws_;
  std::vector<double> dist_;  ///< Dijkstra scratch (distances unused)
};

}  // namespace edgerep
