#include "core/candidate_index.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.h"

namespace edgerep {

CandidateIndex::CandidateIndex(const Instance& inst, bool parallel) {
  if (!inst.finalized()) {
    throw std::invalid_argument("CandidateIndex: instance not finalized");
  }
  const auto sites = inst.sites();
  const auto queries = inst.queries();
  const std::size_t n_sites = sites.size();

  inv_avail_.resize(n_sites);
  avail_.resize(n_sites);
  std::vector<double> proc(n_sites);
  for (const Site& s : sites) {
    inv_avail_[s.id] = 1.0 / std::max(s.available, 1e-12);
    avail_[s.id] = s.available;
    proc[s.id] = s.proc_delay;
  }

  query_offset_.resize(queries.size() + 1);
  std::size_t slots = 0;
  for (const Query& q : queries) {
    query_offset_[q.id] = slots;
    slots += q.demands.size();
    for (const DatasetDemand& dd : q.demands) {
      need_.push_back(inst.dataset(dd.dataset).volume * q.rate);
    }
  }
  query_offset_[queries.size()] = slots;
  slot_begin_.assign(slots + 1, 0);

  // `row(q, slot, delay)` sees delay[l] = vol·proc_delay + sel_vol·path for
  // every site l — the evaluation_delay expression, operation for
  // operation.  The strided column path_delay(·, home) is gathered once per
  // query, not once per demand.  Every query writes only its own slots, so
  // the parallel split leaves the output unchanged.
  const bool fan_out = parallel && queries.size() * n_sites > 4096;
  auto sweep = [&](auto&& row) {
    auto body = [&](std::size_t begin, std::size_t end) {
      std::vector<double> path(n_sites);
      std::vector<double> delay(n_sites);
      for (std::size_t k = begin; k < end; ++k) {
        const Query& q = queries[k];
        for (SiteId l = 0; l < n_sites; ++l) {
          path[l] = inst.path_delay(l, q.home);
        }
        std::size_t slot = query_offset_[q.id];
        for (const DatasetDemand& dd : q.demands) {
          const double vol = inst.dataset(dd.dataset).volume;
          const double sel_vol = dd.selectivity * vol;
          for (std::size_t l = 0; l < n_sites; ++l) {
            delay[l] = vol * proc[l] + sel_vol * path[l];
          }
          row(q, slot++, delay);
        }
      }
    };
    if (fan_out) {
      global_pool().parallel_for_blocked(queries.size(), body);
    } else {
      body(0, queries.size());
    }
  };

  // Sweep 1: count each row, then prefix-sum the counts into CSR offsets.
  sweep([&](const Query& q, std::size_t slot, const std::vector<double>& d) {
    std::size_t n = 0;
    for (const double x : d) n += x <= q.deadline ? 1 : 0;
    slot_begin_[slot + 1] = n;
  });
  std::partial_sum(slot_begin_.begin(), slot_begin_.end(),
                   slot_begin_.begin());

  // Sweep 2: write each row in place, ascending site id.
  const std::size_t total = slot_begin_[slots];
  soa_site_ = std::make_unique_for_overwrite<SiteId[]>(total);
  soa_inv_ = std::make_unique_for_overwrite<double[]>(total);
  soa_dod_ = std::make_unique_for_overwrite<double[]>(total);
  sweep([&](const Query& q, std::size_t slot, const std::vector<double>& d) {
    std::size_t i = slot_begin_[slot];
    for (SiteId l = 0; l < n_sites; ++l) {
      if (d[l] <= q.deadline) {
        soa_site_[i] = l;
        soa_inv_[i] = inv_avail_[l];
        soa_dod_[i] = d[l] / q.deadline;
        ++i;
      }
    }
  });
}

}  // namespace edgerep
