// Golden fixtures for FlowEngine's typed mode.  Each row drives one seeded
// scenario — flow starts, cancels and link-capacity changes scripted on a
// TypedEventQueue — and digests everything the engine emits: every
// rate-listener call (tag, time, rate, remaining, bottleneck) and every
// delivered completion (tag, time), as raw bit patterns (FNV-1a).
//
// The regimes cover what the progressive fill has to get exactly right:
// large contended components (≥50 flows, ≥10 filling rounds), rate caps of
// 1.0 mixed with unconstrained ones, capacity changes, cancels, flows that
// start at the instant others finish, and retirements that split a
// component.  Rows whose opening batch forms one component also check the
// engine's rates after that batch against max_min_rates, bit for bit.
//
// The rows were recorded from the round-scan progressive fill of commit
// e3e258b, which re-counted every link's users in every round.  Both
// re-allocation scopes (kIncremental and kFull) must reproduce every row.
// A mismatch is a failing test, never a fixture update: regenerate a row
// only for a deliberate semantic change to the flow model, and say in that
// change why the old output was wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "sim/event_kernel.h"
#include "sim/flows.h"
#include "util/rng.h"

namespace edgerep {
namespace {

struct Regime {
  const char* name;
  std::size_t links;
  std::size_t batch;       ///< flows started together at t = 0
  std::size_t arrivals;    ///< later Poisson starts
  double arrival_rate;
  double capped_share;     ///< fraction of flows capped at 1.0
  std::size_t cap_changes;
  std::size_t cancels;
  std::uint32_t chain_every;  ///< every k-th delivery starts a flow (0: off)
  bool exact;    ///< power-of-two capacities/sizes, integer start times
  bool bridges;  ///< grouped links joined by short bridging flows
  bool single;   ///< the opening batch must form one component
};

constexpr Regime kRegimes[] = {
    {"Contended", 24, 64, 60, 4.0, 0.0, 0, 0, 0, false, false, true},
    {"MixedCaps", 24, 72, 60, 4.0, 0.5, 0, 0, 0, false, false, true},
    {"CapacityChanges", 28, 64, 80, 3.0, 0.3, 12, 0, 0, false, false, true},
    {"Cancels", 28, 64, 80, 3.0, 0.3, 0, 16, 0, false, false, true},
    {"SameInstant", 12, 40, 60, 1.0, 0.5, 4, 4, 3, true, false, false},
    {"SplitRetire", 24, 60, 40, 2.0, 0.3, 4, 4, 0, false, true, false},
};
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};

enum class Op : std::uint8_t { kStart, kCancel, kCapacity };

struct Action {
  double time = 0.0;
  Op op = Op::kStart;
  std::uint32_t first_tag = 0;  ///< kStart: tags [first_tag, first_tag + n)
  std::uint32_t count = 0;      ///< kStart: flows started by this action
  std::uint32_t target = 0;     ///< kCancel: tag; kCapacity: link
  double value = 0.0;           ///< kCapacity: new capacity
};

struct FlowSpec {
  double size = 0.0;
  double cap = kUnconstrainedRate;
  std::vector<EdgeId> path;
};

struct Scenario {
  std::vector<double> caps;
  std::vector<FlowSpec> flows;  ///< indexed by tag
  std::vector<Action> actions;
};

FlowSpec random_flow(Rng& rng, const Regime& r) {
  FlowSpec f;
  f.cap = rng.bernoulli(r.capped_share) ? 1.0 : kUnconstrainedRate;
  if (r.exact) {
    f.size = static_cast<double>(1u << rng.uniform_u64(0, 3));
  } else {
    f.size = rng.uniform(0.2, 6.0);
  }
  const std::size_t links = r.links;
  if (r.bridges) {
    // Groups of four links.  Members stay in one group and are long;
    // bridges join neighbouring groups and are short, so they retire early
    // and split the component they held together.
    const std::size_t groups = links / 4;
    const std::size_t g =
        static_cast<std::size_t>(rng.uniform_u64(0, groups - 1));
    if (rng.bernoulli(0.25)) {
      const std::size_t h = (g + 1) % groups;
      f.path.push_back(static_cast<EdgeId>(4 * g + rng.uniform_u64(0, 3)));
      f.path.push_back(static_cast<EdgeId>(4 * h + rng.uniform_u64(0, 3)));
      f.size = rng.uniform(0.1, 0.6);
    } else {
      const std::size_t a = static_cast<std::size_t>(rng.uniform_u64(0, 3));
      f.path.push_back(static_cast<EdgeId>(4 * g + a));
      if (rng.bernoulli(0.5)) {
        f.path.push_back(static_cast<EdgeId>(4 * g + (a + 1) % 4));
      }
      f.size = rng.uniform(2.0, 8.0);
    }
    return f;
  }
  // A window of 2–5 consecutive links on a ring, entered at either end.
  const std::size_t hops = static_cast<std::size_t>(rng.uniform_u64(2, 5));
  const std::size_t first =
      static_cast<std::size_t>(rng.uniform_u64(0, links - 1));
  for (std::size_t h = 0; h < hops; ++h) {
    f.path.push_back(static_cast<EdgeId>((first + h) % links));
  }
  if (rng.bernoulli(0.5)) std::reverse(f.path.begin(), f.path.end());
  return f;
}

Scenario make_scenario(const Regime& r, std::uint64_t seed) {
  Rng rng(seed * 7919 + r.links);
  Scenario s;
  for (std::size_t e = 0; e < r.links; ++e) {
    s.caps.push_back(r.exact ? static_cast<double>(1u << rng.uniform_u64(0, 3))
                             : rng.uniform(0.5, 4.0));
  }
  Action batch;
  batch.op = Op::kStart;
  batch.count = static_cast<std::uint32_t>(r.batch);
  s.actions.push_back(batch);
  for (std::size_t i = 0; i < r.batch; ++i) {
    s.flows.push_back(random_flow(rng, r));
  }
  double t = 0.0;
  for (std::size_t i = 0; i < r.arrivals; ++i) {
    t += rng.exponential(r.arrival_rate);
    Action a;
    a.time = r.exact ? std::floor(t) : t;
    a.op = Op::kStart;
    a.first_tag = static_cast<std::uint32_t>(s.flows.size());
    // Exact regimes start several flows at one instant now and then.
    a.count = r.exact ? static_cast<std::uint32_t>(rng.uniform_u64(1, 3)) : 1;
    for (std::uint32_t k = 0; k < a.count; ++k) {
      s.flows.push_back(random_flow(rng, r));
    }
    s.actions.push_back(a);
  }
  const double horizon = std::max(t, 1.0);
  for (std::size_t i = 0; i < r.cap_changes; ++i) {
    Action a;
    a.time = rng.uniform(0.0, horizon);
    if (r.exact) a.time = std::floor(a.time);
    a.op = Op::kCapacity;
    a.target = static_cast<std::uint32_t>(rng.uniform_u64(0, r.links - 1));
    a.value = rng.bernoulli(0.3) ? s.caps[a.target]
              : r.exact ? static_cast<double>(1u << rng.uniform_u64(0, 3))
                        : s.caps[a.target] * rng.uniform(0.25, 2.0);
    s.actions.push_back(a);
  }
  for (std::size_t i = 0; i < r.cancels; ++i) {
    Action a;
    a.time = rng.uniform(0.0, horizon);
    if (r.exact) a.time = std::floor(a.time);
    a.op = Op::kCancel;
    a.target =
        static_cast<std::uint32_t>(rng.uniform_u64(0, s.flows.size() - 1));
    s.actions.push_back(a);
  }
  return s;
}

/// True when `paths` form one connected component (flows linked by links).
bool one_component(const std::vector<std::vector<EdgeId>>& paths,
                   std::size_t links) {
  std::vector<std::size_t> parent(paths.size() + links);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t f = 0; f < paths.size(); ++f) {
    for (const EdgeId e : paths[f]) parent[find(f)] = find(paths.size() + e);
  }
  for (std::size_t f = 1; f < paths.size(); ++f) {
    if (find(f) != find(0)) return false;
  }
  return true;
}

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t listener_calls = 0;
  std::uint64_t deliveries = 0;
};

Outcome run_scenario(const Regime& r, const Scenario& s,
                     FlowEngine::Recompute mode) {
  TypedEventQueue q;
  FlowEngine fe(q, s.caps);
  fe.set_recompute_mode(mode);
  Fnv fnv;
  Outcome out;
  std::vector<FlowSpec> flows = s.flows;  // chained starts append here
  std::vector<double> rate(flows.size(), 0.0);
  fe.set_rate_listener([&](std::uint32_t tag, double time, double rt,
                           double remaining, EdgeId bottleneck) {
    fnv.mix(std::uint64_t{0xA});
    fnv.mix(std::uint64_t{tag});
    fnv.mix(time);
    fnv.mix(rt);
    fnv.mix(remaining);
    fnv.mix(std::uint64_t{bottleneck});
    ++out.listener_calls;
    if (tag >= rate.size()) rate.resize(tag + 1, 0.0);
    rate[tag] = rt;
  });
  std::vector<std::uint32_t> slot(flows.size(), FlowEngine::kNoFlow);
  std::vector<char> live(flows.size(), 0);
  const auto start = [&](std::uint32_t tag) {
    const FlowSpec& f = flows[tag];
    slot[tag] = fe.start_flow(f.size, f.path, tag, f.cap);
    live[tag] = 1;
  };
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    const Action& a = s.actions[i];
    const std::uint64_t band =
        a.op == Op::kStart ? evseq::kArrivalBand : evseq::kFaultBand;
    q.push(SimEvent{a.time, evseq::make(band, i), static_cast<std::uint32_t>(i),
                    0, 0.0, EvKind::kArrival});
  }
  std::uint64_t delivered = 0;
  SimEvent ev;
  while (q.pop(&ev)) {
    if (ev.kind == EvKind::kTransferDone) {
      const std::uint32_t tag = fe.handle_event(ev);
      if (tag == FlowEngine::kNoFlow) continue;
      fnv.mix(std::uint64_t{0xD});
      fnv.mix(std::uint64_t{tag});
      fnv.mix(q.now());
      ++out.deliveries;
      live[tag] = 0;
      if (r.chain_every != 0 && ++delivered % r.chain_every == 0) {
        // A follow-up transfer starts at the instant this one finished.
        FlowSpec next = flows[tag];
        next.size = flows[tag].size * 2.0;
        const auto next_tag = static_cast<std::uint32_t>(flows.size());
        flows.push_back(std::move(next));
        slot.push_back(FlowEngine::kNoFlow);
        live.push_back(0);
        start(next_tag);
      }
      continue;
    }
    const Action& a = s.actions[ev.a];
    switch (a.op) {
      case Op::kStart: {
        for (std::uint32_t k = 0; k < a.count; ++k) start(a.first_tag + k);
        if (ev.a == 0 && r.single) {
          // The opening batch is one component: the engine's rates must be
          // max_min_rates over it, bit for bit.
          std::vector<std::vector<EdgeId>> paths;
          std::vector<double> caps;
          for (std::uint32_t k = 0; k < a.count; ++k) {
            paths.push_back(flows[k].path);
            caps.push_back(flows[k].cap);
          }
          EXPECT_TRUE(one_component(paths, s.caps.size())) << r.name;
          EXPECT_GE(a.count, 50u) << r.name;
          const auto want = max_min_rates(s.caps, paths, caps);
          std::set<std::uint64_t> levels;
          for (std::uint32_t k = 0; k < a.count; ++k) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(rate[k]),
                      std::bit_cast<std::uint64_t>(want[k]))
                << r.name << " flow " << k << ": " << rate[k] << " vs "
                << want[k];
            levels.insert(std::bit_cast<std::uint64_t>(want[k]));
          }
          // Each filling round freezes flows at one level.
          EXPECT_GE(levels.size(), 10u) << r.name << ": too few rounds";
        }
        break;
      }
      case Op::kCancel:
        if (live[a.target] != 0) {
          fnv.mix(std::uint64_t{0xC});
          fnv.mix(std::uint64_t{a.target});
          fnv.mix(q.now());
          fe.cancel(slot[a.target]);
          live[a.target] = 0;
        }
        break;
      case Op::kCapacity:
        fe.set_link_capacity(a.target, a.value);
        break;
    }
  }
  EXPECT_EQ(fe.active_flows(), 0u);
  out.digest = fnv.value();
  return out;
}

struct GoldenRow {
  const char* name;
  std::uint64_t digest;
  std::uint64_t listener_calls;
  std::uint64_t deliveries;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"Contended/1", 0xdd44046fa78d9a1b, 4054, 124},
    {"Contended/2", 0xe213fc650b04fcbc, 4260, 124},
    {"Contended/3", 0xdf138645c81b0717, 4381, 124},
    {"Contended/4", 0x74de95788f4f8b10, 5129, 124},
    {"MixedCaps/1", 0xe5b0e48f9130b32f, 5107, 132},
    {"MixedCaps/2", 0x359d10d0643ac497, 4965, 132},
    {"MixedCaps/3", 0x0736db50368d121b, 5811, 132},
    {"MixedCaps/4", 0x2ce6f2384489989f, 5738, 132},
    {"CapacityChanges/1", 0xcd24a12f8985f3a4, 4667, 144},
    {"CapacityChanges/2", 0xda0e0995a600f3f2, 5137, 144},
    {"CapacityChanges/3", 0x994b49d6e735a013, 4625, 144},
    {"CapacityChanges/4", 0xd759c4afbcba3bcf, 5533, 144},
    {"Cancels/1", 0x4d2117210a151308, 4714, 136},
    {"Cancels/2", 0x4fb66ac613027386, 4971, 137},
    {"Cancels/3", 0xa1ec9e7acdbc6d4c, 4502, 137},
    {"Cancels/4", 0xcf04d771a34eaea3, 5048, 138},
    {"SameInstant/1", 0xd98390914d9e3b50, 13617, 242},
    {"SameInstant/2", 0x57fc61cc4f04b30e, 10906, 221},
    {"SameInstant/3", 0x00ecdf8be1f206fd, 13301, 238},
    {"SameInstant/4", 0x42f18db66871a22c, 11390, 232},
    {"SplitRetire/1", 0xc5c385b6394a33f2, 1199, 99},
    {"SplitRetire/2", 0xb50de81994eb99a1, 1218, 99},
    {"SplitRetire/3", 0x9c4a63cf990eb69a, 1061, 98},
    {"SplitRetire/4", 0x9ff242266ea6df67, 918, 97},
};
// clang-format on

class FlowEngineGolden
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(FlowEngineGolden, MatchesRecordedDigest) {
  const Regime& r = kRegimes[std::get<0>(GetParam())];
  const std::uint64_t seed = std::get<1>(GetParam());
  char name[64];
  std::snprintf(name, sizeof name, "%s/%llu", r.name,
                static_cast<unsigned long long>(seed));
  const Scenario s = make_scenario(r, seed);
  const Outcome inc = run_scenario(r, s, FlowEngine::Recompute::kIncremental);
  const Outcome full = run_scenario(r, s, FlowEngine::Recompute::kFull);
  EXPECT_EQ(inc.digest, full.digest) << name << ": kFull diverges";
  char measured[160];
  std::snprintf(measured, sizeof measured, "{\"%s\", 0x%016llx, %llu, %llu},",
                name, static_cast<unsigned long long>(inc.digest),
                static_cast<unsigned long long>(inc.listener_calls),
                static_cast<unsigned long long>(inc.deliveries));
  const GoldenRow* row = nullptr;
  for (const GoldenRow& g : kGolden) {
    if (std::string_view(g.name) == name) row = &g;
  }
  ASSERT_NE(row, nullptr) << "no golden row; measured " << measured;
  EXPECT_EQ(inc.digest, row->digest) << "measured " << measured;
  EXPECT_EQ(inc.listener_calls, row->listener_calls) << "measured " << measured;
  EXPECT_EQ(inc.deliveries, row->deliveries) << "measured " << measured;
}

INSTANTIATE_TEST_SUITE_P(
    Rows, FlowEngineGolden,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kRegimes)),
                       ::testing::ValuesIn(kSeeds)),
    [](const auto& info) {
      return std::string(kRegimes[std::get<0>(info.param)].name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(FlowEngineGoldenTable, OneRowPerScenario) {
  EXPECT_EQ(std::size(kGolden), std::size(kRegimes) * std::size(kSeeds));
}

}  // namespace
}  // namespace edgerep
