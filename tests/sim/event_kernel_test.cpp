#include "sim/event_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "helpers/fixtures.h"
#include "helpers/online_scenarios.h"
#include "sim/online.h"
#include "util/rng.h"

namespace edgerep {
namespace {

SimEvent ev(EvKind kind, double time, std::uint64_t seq, std::uint32_t a = 0,
            std::uint32_t b = 0, double c = 0.0) {
  return SimEvent{time, seq, a, b, c, kind};
}

TEST(TypedEventQueue, PopsInTimeOrder) {
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 3.0, evseq::make(evseq::kArrivalBand, 0)));
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 1)));
  q.push(ev(EvKind::kArrival, 2.0, evseq::make(evseq::kArrivalBand, 2)));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_DOUBLE_EQ(out.time, 1.0);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_DOUBLE_EQ(out.time, 2.0);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_DOUBLE_EQ(out.time, 3.0);
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.events_popped(), 3u);
}

TEST(TypedEventQueue, SimultaneousEventsOrderByBandThenCounter) {
  // At one instant: a status tick, a dynamic completion, an arrival, and a
  // fault, pushed in scrambled order.  They must pop fault < arrival <
  // dynamic < status — the band order of evseq.
  TypedEventQueue q;
  q.push_status(5.0);
  q.push_dynamic(EvKind::kComputeDone, 5.0, 7, 1);
  q.push(ev(EvKind::kArrival, 5.0, evseq::make(evseq::kArrivalBand, 3), 3));
  q.push(ev(EvKind::kFaultApply, 5.0, evseq::make(evseq::kFaultBand, 0), 0));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kFaultApply);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kArrival);
  EXPECT_EQ(out.a, 3u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kComputeDone);
  EXPECT_EQ(out.a, 7u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kStatusTick);
  EXPECT_FALSE(q.pop(&out));
}

TEST(TypedEventQueue, FaultBeatsArrivalRegardlessOfPushOrder) {
  // The lazy streams push in whatever order handlers run; the banded seq
  // alone must give fault-before-arrival at an equal instant.
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 2.0, evseq::make(evseq::kArrivalBand, 0), 0));
  q.push(ev(EvKind::kFaultApply, 2.0, evseq::make(evseq::kFaultBand, 4), 4));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kFaultApply);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kArrival);
}

TEST(TypedEventQueue, DynamicEventsKeepScheduleCallOrderAtOneInstant) {
  TypedEventQueue q;
  for (std::uint32_t i = 0; i < 8; ++i) {
    q.push_dynamic(EvKind::kComputeDone, 1.0, i, 0);
  }
  SimEvent out;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.pop(&out));
    EXPECT_EQ(out.a, i);
  }
}

TEST(TypedEventQueue, ImmediatesDrainFifoBeforeHeap) {
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 0)));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));  // now == 1.0
  q.post(ev(EvKind::kRelocate, 0.0, 0, 10, 0, 2.5));
  q.post(ev(EvKind::kRelocate, 0.0, 0, 11, 1, 3.5));
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 1)));
  // Immediates run first even though a heap event is ready at this instant,
  // and they are stamped with the current time.
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kRelocate);
  EXPECT_EQ(out.a, 10u);
  EXPECT_DOUBLE_EQ(out.time, 1.0);
  EXPECT_DOUBLE_EQ(out.c, 2.5);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.a, 11u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kArrival);
  EXPECT_EQ(q.events_popped(), 4u);
}

TEST(TypedEventQueue, PopImmediateOnlyTouchesTheRing) {
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 0)));
  SimEvent out;
  EXPECT_FALSE(q.pop_immediate(&out));  // heap event is not an immediate
  q.post(ev(EvKind::kRelocate, 0.0, 0, 1, 0, 0.0));
  EXPECT_TRUE(q.pop_immediate(&out));
  EXPECT_EQ(out.kind, EvKind::kRelocate);
  EXPECT_FALSE(q.pop_immediate(&out));
  EXPECT_EQ(q.pending(), 1u);  // the heap event is still there
}

TEST(TypedEventQueue, RandomizedHeapDrainsSorted) {
  TypedEventQueue q;
  Rng rng(0xE7E7);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    times.push_back(t);
    q.push_dynamic(EvKind::kComputeDone, t, static_cast<std::uint32_t>(i), 0);
  }
  std::sort(times.begin(), times.end());
  SimEvent out;
  SimEvent prev{};
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(q.pop(&out));
    EXPECT_DOUBLE_EQ(out.time, times[static_cast<std::size_t>(i)]);
    if (i > 0) {
      EXPECT_TRUE(event_before(prev, out));
    }
    prev = out;
  }
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.peak_pending(), 2000u);
  EXPECT_GE(q.peak_bytes(), 2000u * sizeof(SimEvent));
}

TEST(TypedEventQueue, PeakPendingTracksHighWater) {
  TypedEventQueue q;
  q.push_dynamic(EvKind::kComputeDone, 1.0, 0, 0);
  q.push_dynamic(EvKind::kComputeDone, 2.0, 1, 0);
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  ASSERT_TRUE(q.pop(&out));
  q.push_dynamic(EvKind::kComputeDone, 3.0, 2, 0);
  EXPECT_EQ(q.peak_pending(), 2u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(TypedEventQueue, ReArmingReplacesTheKeysEntry) {
  TypedEventQueue q;
  q.arm(3, 5.0, 0);
  q.arm(3, 2.0, 1);  // earlier
  q.arm(3, 4.0, 2);  // later again: only this entry may pop
  q.arm(7, 3.0, 0);
  EXPECT_EQ(q.pending(), 2u);
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kTransferDone);
  EXPECT_EQ(out.a, 7u);
  EXPECT_DOUBLE_EQ(out.time, 3.0);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kTransferDone);
  EXPECT_EQ(out.a, 3u);
  EXPECT_EQ(out.b, 2u);
  EXPECT_DOUBLE_EQ(out.time, 4.0);
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.events_popped(), 2u);
}

TEST(TypedEventQueue, DisarmWithdrawsTheEntry) {
  TypedEventQueue q;
  q.arm(1, 1.0, 0);
  q.arm(2, 2.0, 0);
  q.arm(3, 3.0, 0);
  q.disarm(1);
  q.disarm(9);  // never armed: no-op
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.a, 2u);
  q.disarm(2);  // already popped: no-op
  q.disarm(3);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop(&out));
  q.arm(3, 4.0, 5);  // a withdrawn key can be armed again
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.a, 3u);
  EXPECT_EQ(out.b, 5u);
}

TEST(TypedEventQueue, ArmedAndDynamicEventsPopInSeqOrderAtOneInstant) {
  // arm() draws from the same dynamic-band counter as push_dynamic, so at
  // one instant the two interleave in call order; a re-arm takes the
  // newest seq.  Faults still pop first and status ticks last.
  TypedEventQueue q;
  q.push_status(1.0);
  q.push_dynamic(EvKind::kComputeDone, 1.0, 100, 0);  // dyn seq 0
  q.arm(0, 1.0, 0);                                   // 1
  q.push_dynamic(EvKind::kComputeDone, 1.0, 101, 0);  // 2
  q.arm(1, 1.0, 0);                                   // 3
  q.arm(0, 1.0, 1);                                   // 4, replaces 1
  q.push(ev(EvKind::kFaultApply, 1.0, evseq::make(evseq::kFaultBand, 0)));
  SimEvent out;
  std::vector<std::pair<EvKind, std::uint32_t>> order;
  while (q.pop(&out)) order.emplace_back(out.kind, out.a);
  const std::vector<std::pair<EvKind, std::uint32_t>> want = {
      {EvKind::kFaultApply, 0},   {EvKind::kComputeDone, 100},
      {EvKind::kComputeDone, 101}, {EvKind::kTransferDone, 1},
      {EvKind::kTransferDone, 0}, {EvKind::kStatusTick, 0}};
  EXPECT_EQ(order, want);
}

TEST(TypedEventQueue, PeakPendingCountsArmedEntries) {
  TypedEventQueue q;
  q.push_dynamic(EvKind::kComputeDone, 1.0, 0, 0);
  q.arm(0, 2.0, 0);
  q.arm(1, 3.0, 0);
  q.arm(0, 2.5, 1);  // re-arm: still one entry for key 0
  EXPECT_EQ(q.pending(), 3u);
  SimEvent out;
  while (q.pop(&out)) {
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.peak_pending(), 3u);
  EXPECT_GE(q.peak_bytes(), 3u * sizeof(SimEvent));
}

TEST(TypedEventQueue, RandomizedArmsMatchAReferenceOrder) {
  // Random pushes, arms, re-arms, disarms and pops against a reference
  // that keeps every live entry in a flat list: each pop must return the
  // reference's (time, seq) minimum.
  TypedEventQueue q;
  Rng rng(0xA4A4);
  std::vector<SimEvent> ref;  // pushed events and armed entries (a = key)
  std::uint64_t dyn = 0;
  const auto armed_at = [&ref](std::uint32_t key) {
    return std::find_if(ref.begin(), ref.end(), [key](const SimEvent& e) {
      return e.kind == EvKind::kTransferDone && e.a == key;
    });
  };
  for (int step = 0; step < 5000; ++step) {
    const double t = q.now() + rng.uniform(0.0, 4.0);
    const auto key = static_cast<std::uint32_t>(rng.uniform_u64(0, 31));
    switch (rng.uniform_u64(0, 4)) {
      case 0:
        q.push_dynamic(EvKind::kComputeDone, t, key, 0);
        ref.push_back(SimEvent{t, evseq::make(evseq::kDynamicBand, dyn++),
                               key, 0, 0.0, EvKind::kComputeDone});
        break;
      case 1:
      case 2: {
        q.arm(key, t, static_cast<std::uint32_t>(step));
        const SimEvent e{t, evseq::make(evseq::kDynamicBand, dyn++), key,
                         static_cast<std::uint32_t>(step), 0.0,
                         EvKind::kTransferDone};
        const auto it = armed_at(key);
        if (it != ref.end()) {
          *it = e;
        } else {
          ref.push_back(e);
        }
        break;
      }
      case 3: {
        q.disarm(key);
        const auto it = armed_at(key);
        if (it != ref.end()) ref.erase(it);
        break;
      }
      default: {
        SimEvent out;
        ASSERT_EQ(q.pop(&out), !ref.empty());
        if (ref.empty()) break;
        const auto it = std::min_element(ref.begin(), ref.end(), event_before);
        EXPECT_EQ(out.seq, it->seq) << "step " << step;
        EXPECT_EQ(out.kind, it->kind);
        EXPECT_EQ(out.a, it->a);
        EXPECT_EQ(out.b, it->b);
        EXPECT_EQ(out.time, it->time);
        ref.erase(it);
        break;
      }
    }
    ASSERT_EQ(q.pending(), ref.size()) << "step " << step;
  }
}

TEST(FlightSlab, StaleHandleDereferencesToNull) {
  FlightSlab slab;
  const FlightHandle h = slab.create();
  ASSERT_NE(slab.get(h), nullptr);
  slab.destroy(h);
  EXPECT_EQ(slab.get(h), nullptr);  // generation bumped on destroy
  EXPECT_EQ(slab.live_count(), 0u);
}

TEST(FlightSlab, ReusedSlotInvalidatesOldHandles) {
  FlightSlab slab;
  const FlightHandle a = slab.create();
  slab.destroy(a);
  const FlightHandle b = slab.create();
  EXPECT_EQ(b.slot, a.slot);  // free list reuses the slot...
  EXPECT_NE(b.gen, a.gen);    // ...under a new generation
  EXPECT_EQ(slab.get(a), nullptr);
  EXPECT_NE(slab.get(b), nullptr);
  EXPECT_EQ(slab.slot_count(), 1u);
}

TEST(FlightSlab, LiveListIteratesInCreationOrderAcrossReuse) {
  FlightSlab slab;
  const FlightHandle a = slab.create();
  const FlightHandle b = slab.create();
  const FlightHandle c = slab.create();
  slab.destroy(b);
  // Reuses b's slot, but the new flight is the *youngest*: it must appear
  // last in the live list, and its birth must exceed everyone else's.
  const FlightHandle d = slab.create();
  EXPECT_EQ(d.slot, b.slot);
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = slab.live_head(); s != kNilSlot;
       s = slab.at(s).next) {
    order.push_back(s);
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a.slot);
  EXPECT_EQ(order[1], c.slot);
  EXPECT_EQ(order[2], d.slot);
  EXPECT_LT(slab.at(a.slot).birth, slab.at(c.slot).birth);
  EXPECT_LT(slab.at(c.slot).birth, slab.at(d.slot).birth);
  EXPECT_EQ(slab.peak_live(), 3u);
}

TEST(FlightSlab, DestroyHeadAndTailKeepListConsistent) {
  FlightSlab slab;
  const FlightHandle a = slab.create();
  const FlightHandle b = slab.create();
  const FlightHandle c = slab.create();
  slab.destroy(a);  // head
  slab.destroy(c);  // tail
  EXPECT_EQ(slab.live_head(), b.slot);
  EXPECT_EQ(slab.at(b.slot).next, kNilSlot);
  EXPECT_EQ(slab.live_count(), 1u);
  slab.destroy(b);
  EXPECT_EQ(slab.live_head(), kNilSlot);
}

// --- kernel edge regimes through the public run_online surface -----------

TEST(TypedKernel, FaultAtArrivalInstantResolvesFaultFirst) {
  // Uniform arrivals at rate 1 land at exactly t = 1, 2, 3 (exact doubles).
  // A site crash at exactly t = 1 must apply before query 0 is admitted —
  // with the only feasible site down, the query is rejected.
  const Instance inst = testing::one_site_instance(0.05, /*deadline=*/2.0);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;
  cfg.faults.events.push_back(
      FaultEvent{1.0, FaultKind::kSiteDown, 0, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_FALSE(r.outcomes[0].admitted);
  EXPECT_EQ(r.fault_events_applied, 1u);
}

TEST(TypedKernel, EmptyTraceMatchesFaultFreeRunBitForBit) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  OnlineConfig plain;
  OnlineConfig empty_trace;
  empty_trace.faults = FaultTrace{};  // explicitly empty
  const std::uint64_t a = online_result_hash(run_online(inst, plain));
  const std::uint64_t b = online_result_hash(run_online(inst, empty_trace));
  EXPECT_EQ(a, b);
}

TEST(TypedKernel, StaleCompletionsSelfDiscardAfterCrash) {
  // A crash mid-flight leaves the killed flights' completion events in the
  // heap; they must self-discard (no double-release of site capacity).
  // With repair off, the admitted query simply fails.
  const Instance inst = testing::one_site_instance(1.0, /*deadline=*/10.0);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;    // arrival at t = 1, completion due t = 5
  cfg.repair_on_failure = false;
  cfg.faults.events.push_back(
      FaultEvent{2.0, FaultKind::kSiteDown, 0, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.queries_failed_by_fault, 1u);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_TRUE(r.outcomes[0].failed_by_fault);
}

TEST(TypedKernel, HeapStaysBoundedByConcurrencyNotHorizon) {
  // 60 queries, but the heap holds one pending arrival plus the in-flight
  // completions — never the whole horizon.
  const Instance inst = testing::medium_instance(3, /*f_max=*/2);
  const OnlineResult r = run_online(inst);
  EXPECT_LT(r.kernel_stats.peak_pending_events, inst.queries().size());
  EXPECT_LE(r.kernel_stats.peak_pending_events,
            r.kernel_stats.peak_flights + 2);
}

}  // namespace
}  // namespace edgerep
