#include "net/routes.h"

#include <algorithm>
#include <stdexcept>

namespace edgerep {

RouteTable::RouteTable(const Graph& g, std::span<const NodeId> sources)
    : g_(&g), n_(g.num_nodes()), sources_(sources.begin(), sources.end()) {
  for (const NodeId s : sources_) {
    if (s >= n_) {
      throw std::invalid_argument("RouteTable: source out of range");
    }
  }
  row_at_.assign(sources_.size(), kNotComputed);
}

const NodeId* RouteTable::row_parents(std::size_t row) {
  std::uint32_t& at = row_at_[row];
  if (at == kNotComputed) {
    at = static_cast<std::uint32_t>(rows_computed());
    parent_.resize(parent_.size() + n_);
    dist_.resize(n_);
    ws_.run(*g_, sources_[row], dist_,
            std::span<NodeId>(parent_.data() + at * n_, n_));
  }
  return parent_.data() + static_cast<std::size_t>(at) * n_;
}

bool RouteTable::edge_path(std::size_t row, NodeId target,
                           std::vector<EdgeId>& out) {
  out.clear();
  if (row >= sources_.size() || target >= n_) {
    throw std::out_of_range(
        "RouteTable::edge_path: row or target out of range");
  }
  const NodeId source = sources_[row];
  if (target == source) return true;
  const NodeId* parent = row_parents(row);
  const Graph& g = *g_;
  // Walk target → source through the parent forest, resolving each hop to
  // the cheapest parallel edge (first cheapest wins when delays are equal).
  for (NodeId v = target; v != source;) {
    const NodeId p = parent[v];
    if (p == kInvalidNode) {  // unreachable from this source
      out.clear();
      return false;
    }
    EdgeId best = kInvalidEdge;
    for (const HalfEdge& he : g.neighbors(p)) {
      if (he.to != v) continue;
      if (best == kInvalidEdge || he.delay < g.edge(best).delay) {
        best = he.edge;
      }
    }
    if (best == kInvalidEdge) {
      throw std::logic_error("RouteTable::edge_path: broken parent forest");
    }
    out.push_back(best);
    v = p;
  }
  std::reverse(out.begin(), out.end());
  return true;
}

}  // namespace edgerep
