// Windowed telemetry + SLO scoring: window boundary semantics, the
// fault-phase state machine, LogHistogram's quantization bound against
// the exact obs::percentile, SLO window scoring, the fleet rollup of many
// scorecards, and the integration properties the tools rely on —
// same-seed byte-identical timeline JSON, nemesis fault spans in the
// trace, and the simfuzz watchdog turning a livelock into a structured
// stall report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "check/nemesis.h"
#include "check/simfuzz.h"
#include "common/strings.h"
#include "dir/client.h"
#include "harness/workload.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace amoeba {
namespace {

constexpr sim::Duration kWin = sim::msec(100);

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogram, LowerBoundRoundTripsThroughIndex) {
  for (int i = 0; i < obs::LogHistogram::kBuckets; ++i) {
    EXPECT_EQ(obs::LogHistogram::index(obs::LogHistogram::lower_bound_us(i)),
              i)
        << "bucket " << i;
  }
}

TEST(LogHistogram, NegativeValuesClampToZeroBucket) {
  obs::LogHistogram h;
  h.add(-5);
  EXPECT_EQ(h.n(), 1u);
  // Clamped into bucket 0 = [0, 1) us; the reported percentile is the
  // bucket-midpoint interpolation, so anywhere inside [0, 1).
  EXPECT_GE(h.percentile_us(50), 0.0);
  EXPECT_LT(h.percentile_us(50), 1.0);
}

// The octave/sub-bucket scheme bounds relative quantization error by
// 1/2^kSubBits = 12.5% (the header's contract). Pin it against the exact
// obs::percentile on a deterministic sample set spanning many octaves.
TEST(LogHistogram, PercentileWithin12Point5PercentOfExact) {
  obs::LogHistogram h;
  std::vector<double> xs;
  std::uint64_t state = 42;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    // Spread across ~2^5 .. 2^25 us (32 us .. 33 s): log-uniform-ish.
    const auto v = static_cast<sim::Duration>((state >> 38) + 32);
    h.add(v);
    xs.push_back(static_cast<double>(v));
  }
  std::sort(xs.begin(), xs.end());
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = obs::percentile(xs, p);
    const double approx = h.percentile_us(p);
    EXPECT_LE(std::abs(approx - exact), 0.125 * exact + 1.0)
        << "p" << p << ": exact " << exact << " approx " << approx;
  }
}

// ---------------------------------------------------------------- windows

TEST(Timeline, OpBelongsToWindowOfCompletion) {
  obs::Timeline tl(kWin);
  // Straddles the 100 ms edge: started in window 0, finished in window 1.
  tl.record(obs::TimelineOp::append_row, sim::msec(80), sim::msec(120),
            true);
  ASSERT_EQ(tl.windows().size(), 1u);
  EXPECT_EQ(tl.window_start(0), sim::msec(100));
  EXPECT_EQ(tl.windows()[0].total_ok(), 1u);
  // Latency is still the op's full duration, not the in-window part.
  const double full_us = static_cast<double>(sim::msec(40));  // us already
  EXPECT_NEAR(tl.windows()[0].latency.percentile_us(50), full_us,
              full_us * 0.125);
}

TEST(Timeline, CompletionExactlyOnEdgeOpensTheNextWindow) {
  obs::Timeline tl(kWin);
  tl.record(obs::TimelineOp::lookup_set, 0, sim::msec(100) - 1, true);
  tl.record(obs::TimelineOp::lookup_set, 0, sim::msec(100), true);
  ASSERT_EQ(tl.windows().size(), 2u);
  EXPECT_EQ(tl.window_start(0), 0);
  EXPECT_EQ(tl.windows()[0].total_ok(), 1u);
  EXPECT_EQ(tl.windows()[1].total_ok(), 1u);
}

TEST(Timeline, QuietStretchMaterializesEmptyWindows) {
  obs::Timeline tl(kWin);
  tl.record(obs::TimelineOp::append_row, 0, sim::msec(10), true);
  tl.record(obs::TimelineOp::append_row, 0, sim::msec(1010), true);
  ASSERT_EQ(tl.windows().size(), 11u);  // windows 0..10, 1..9 empty
  for (std::size_t i = 1; i <= 9; ++i) {
    EXPECT_EQ(tl.windows()[i].total_ok() + tl.windows()[i].total_err(), 0u)
        << "window " << i;
  }
  // The JSON series carries the empty windows with explicit nulls.
  const std::string text = tl.to_json().dump();
  EXPECT_NE(text.find("\"p99_ms\": null"), std::string::npos);
}

TEST(Timeline, ErrorsCountSeparatelyAndDoNotAdvanceLastOk) {
  obs::Timeline tl(kWin);
  tl.record(obs::TimelineOp::append_row, 0, sim::msec(10), true);
  tl.record(obs::TimelineOp::append_row, 0, sim::msec(20), false);
  EXPECT_EQ(tl.ops_ok(), 1u);
  EXPECT_EQ(tl.ops_err(), 1u);
  EXPECT_EQ(tl.last_ok_completion(), sim::msec(10));
  EXPECT_EQ(tl.last_completion(), sim::msec(20));
}

// ------------------------------------------------------ fault-phase marks

TEST(Timeline, PhaseStateMachineResolvesSignalsInOrder) {
  obs::Timeline tl(kWin);
  // Signals with no open fault are ignored.
  tl.signal(obs::Signal::suspicion, sim::msec(1));
  EXPECT_TRUE(tl.phases().empty());

  tl.fault_injected("crash", 1, sim::msec(100));
  // A signal stamped before injection cannot close detection.
  tl.signal(obs::Signal::suspicion, sim::msec(50));
  EXPECT_EQ(tl.phases().back().detected, -1);

  tl.signal(obs::Signal::suspicion, sim::msec(150));
  tl.signal(obs::Signal::view_install, sim::msec(160));  // already detected
  EXPECT_EQ(tl.phases().back().detected, sim::msec(150));
  EXPECT_STREQ(tl.phases().back().detected_by, "suspicion");

  tl.signal(obs::Signal::view_change, sim::msec(200));
  EXPECT_EQ(tl.phases().back().isolated, sim::msec(200));

  // recovery_done before the heal is the victim's *old* incarnation; it
  // must not close recovery of a fault that is still live.
  tl.signal(obs::Signal::recovery_done, sim::msec(250));
  EXPECT_EQ(tl.phases().back().recovered, -1);

  tl.fault_healed(sim::msec(300));
  tl.signal(obs::Signal::recovery_done, sim::msec(400));
  EXPECT_EQ(tl.phases().back().recovered, sim::msec(400));
  EXPECT_EQ(tl.phases().back().rejoined, sim::msec(400));
}

TEST(Timeline, ViewChangeAloneClosesDetectionAndIsolation) {
  obs::Timeline tl(kWin);
  tl.fault_injected("partition", 2, sim::msec(100));
  tl.signal(obs::Signal::view_change, sim::msec(180));
  EXPECT_EQ(tl.phases().back().detected, sim::msec(180));
  EXPECT_STREQ(tl.phases().back().detected_by, "view_change");
  EXPECT_EQ(tl.phases().back().isolated, sim::msec(180));
}

TEST(Timeline, PostHealSuccessfulOpClosesRecoveredButNotRejoined) {
  obs::Timeline tl(kWin);
  tl.fault_injected("crash", 0, sim::msec(100));
  tl.fault_healed(sim::msec(300));
  // An error completion after the heal is not service.
  tl.record(obs::TimelineOp::append_row, sim::msec(300), sim::msec(350),
            false);
  EXPECT_EQ(tl.phases().back().recovered, -1);
  tl.record(obs::TimelineOp::append_row, sim::msec(300), sim::msec(360),
            true);
  EXPECT_EQ(tl.phases().back().recovered, sim::msec(360));
  EXPECT_EQ(tl.phases().back().rejoined, -1);  // only recovery_done rejoins
}

// -------------------------------------------------------------- SLO math

TEST(Slo, WindowScoringAndBlackouts) {
  obs::Timeline tl(kWin);
  // Window 0: healthy traffic.
  for (int i = 0; i < 10; ++i) {
    tl.record(obs::TimelineOp::lookup_set, 0, sim::msec(i + 1), true);
  }
  tl.fault_injected("crash", 1, sim::msec(150));
  // Window 1 starts before the injection, so its emptiness is not
  // attributed to the fault; windows 2 and 3 are empty while the fault
  // is outstanding: blackouts.
  // Window 4: all errors (error rate 1.0 > 1% target): bad.
  for (int i = 0; i < 4; ++i) {
    tl.record(obs::TimelineOp::append_row, sim::msec(400),
              sim::msec(410 + i), false);
  }
  tl.fault_healed(sim::msec(500));
  // Window 5: healthy again; the ok op closes recovery.
  for (int i = 0; i < 5; ++i) {
    tl.record(obs::TimelineOp::append_row, sim::msec(500),
              sim::msec(510 + i), true);
  }

  const obs::SloReport r = obs::evaluate_slo(tl);
  EXPECT_EQ(r.windows_total, 6u);
  EXPECT_EQ(r.windows_blackout, 2u);  // windows 2 and 3
  EXPECT_EQ(r.windows_bad, 3u);       // the blackouts + the error window
  EXPECT_NEAR(r.availability, 3.0 / 6.0, 1e-9);

  ASSERT_EQ(r.faults.size(), 1u);
  const obs::FaultScore& f = r.faults[0];
  // recovered = first ok op at/after heal = 510 ms; healed = 500 ms.
  EXPECT_NEAR(f.time_to_recover_ms, 10.0, 1e-9);
  // Slices partition the fault's life: impact [inject, heal) holds the 4
  // errors, restored [recover, ...) holds the 5 post-heal successes.
  ASSERT_EQ(f.slices.size(), 4u);
  EXPECT_EQ(f.slices[1].err, 4u);
  EXPECT_EQ(f.slices[3].ok, 5u);
}

TEST(Slo, CleanRunHasPerfectAvailabilityAndNoFaults) {
  obs::Timeline tl(kWin);
  for (int i = 0; i < 50; ++i) {
    tl.record(obs::TimelineOp::lookup_set, sim::msec(10 * i),
              sim::msec(10 * i + 2), true);
  }
  const obs::SloReport r = obs::evaluate_slo(tl);
  EXPECT_EQ(r.windows_bad, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_TRUE(r.faults.empty());
}

// ------------------------------------------------------------ SLO fleet

/// A one-fault scorecard with the given phase times in ms (< 0: the mark
/// was never reached).
obs::SloReport one_fault(double detect, double isolate, double recover,
                         double rejoin, double availability, double p99_ms) {
  const auto mark = [](double ms) {
    return ms < 0 ? sim::Time{-1} : static_cast<sim::Time>(ms * 1000);
  };
  obs::FaultScore f;
  f.phase.injected = 0;
  f.phase.healed = 0;
  f.phase.detected = mark(detect);
  f.phase.isolated = mark(isolate);
  f.phase.recovered = mark(recover);
  f.phase.rejoined = mark(rejoin);
  f.time_to_detect_ms = detect;
  f.time_to_isolate_ms = isolate;
  f.time_to_recover_ms = recover;
  f.time_to_rejoin_ms = rejoin;
  obs::SloReport r;
  r.availability = availability;
  r.overall_p99_ms = p99_ms;
  r.faults.push_back(f);
  return r;
}

TEST(SloFleet, RollsCasesUpPerKindAndFleetWide) {
  obs::SloFleet fleet;
  // crash: one complete case, one whose isolation never happened.
  fleet.add("crash", one_fault(10, 20, 30, -1, 0.9, 100),
            {.suspects = 1, .false_suspects = 1});
  fleet.add("crash", one_fault(15, -1, 25, -1, 0.8, 200), {});
  // slow_disk: two gray cases; the detector names the victim in one, and
  // the other scored no fault at all, so it is not complete either.
  fleet.add("slow_disk", one_fault(500, 500, 40, 60, 0.95, 300),
            {.gray = true, .detected = true, .suspects = 2});
  obs::SloReport empty;
  empty.availability = 0.7;
  empty.overall_p99_ms = 50;
  fleet.add("slow_disk", empty, {.gray = true});

  ASSERT_EQ(fleet.kinds().size(), 2u);
  const obs::SloFleet::Kind& crash = fleet.kinds().at("crash");
  EXPECT_EQ(crash.runs, 2u);
  EXPECT_EQ(crash.complete, 1u);
  EXPECT_EQ(crash.worst_detect_ms, 15);
  EXPECT_EQ(crash.worst_isolate_ms, 20);
  EXPECT_EQ(crash.worst_recover_ms, 30);
  EXPECT_LT(crash.worst_rejoin_ms, 0);
  EXPECT_DOUBLE_EQ(crash.min_availability, 0.8);
  EXPECT_NEAR(crash.p99_of_p99s_ms(), 199, 1e-9);  // between 100 and 200
  EXPECT_LT(crash.false_negative_rate(), 0);       // no gray case

  const obs::SloFleet::Kind& slow = fleet.kinds().at("slow_disk");
  EXPECT_EQ(slow.complete, 1u);
  EXPECT_EQ(slow.worst_rejoin_ms, 60);
  EXPECT_DOUBLE_EQ(slow.min_availability, 0.7);
  EXPECT_EQ(slow.gray_runs, 2u);
  EXPECT_EQ(slow.gray_detected, 1u);
  EXPECT_DOUBLE_EQ(slow.false_negative_rate(), 0.5);

  EXPECT_EQ(fleet.fleet().runs, 4u);
  EXPECT_EQ(fleet.fleet().worst_recover_ms, 40);
  EXPECT_NEAR(fleet.fleet().p99_of_p99s_ms(), 297, 1e-9);  // of 50..300

  obs::Json root = obs::Json::object();
  fleet.add_json(root);
  const obs::Json* jcrash = root.find("by_fault_kind")->find("crash");
  ASSERT_NE(jcrash, nullptr);
  EXPECT_TRUE(jcrash->find("worst_time_to_rejoin_ms")->is_null());
  EXPECT_EQ(jcrash->find("worst_time_to_isolate_ms")->as_num(), 20);
  EXPECT_EQ(jcrash->find("gray_detected"), nullptr);
  const obs::Json* jslow = root.find("by_fault_kind")->find("slow_disk");
  EXPECT_DOUBLE_EQ(jslow->find("suspicion_false_negative_rate")->as_num(),
                   0.5);
  const obs::Json* jfleet = root.find("fleet");
  EXPECT_DOUBLE_EQ(jfleet->find("suspicion_false_positive_rate")->as_num(),
                   0.25);  // one false suspicion over four cases
  EXPECT_DOUBLE_EQ(jfleet->find("suspicion_false_negative_rate")->as_num(),
                   0.5);

  std::string table;
  fleet.print(table);
  EXPECT_NE(table.find("1 false suspicion(s) over 4 scored case(s); 1/2 "
                       "gray fault(s) detected"),
            std::string::npos);
}

// ------------------------------------------------------------ integration

/// Run a short crash schedule against a group+NVRAM testbed while one
/// client hammers the service; returns the timeline JSON dump and, with
/// `chrome`, the run's Chrome trace export.
std::string nemesis_run_timeline_json(std::uint64_t seed,
                                      bool* complete_phase,
                                      bool* nemesis_span,
                                      std::string* chrome = nullptr) {
  harness::Testbed bed(
      {.flavor = harness::Flavor::group_nvram, .clients = 1, .seed = seed});
  if (!bed.wait_ready()) return {};
  net::Machine& cm = bed.client(0);
  bool stop = false;
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    auto dcap = harness::create_dir_retry(dc, bed.sim(), {"c"});
    if (!dcap.is_ok()) return;
    int i = 0;
    while (!stop) {
      const std::string name = numbered("e", i++ % 4);
      (void)dc.append_row(*dcap, name, {});
      (void)dc.lookup(*dcap, name);
      bed.sim().sleep_for(sim::msec(5));
    }
  });
  bed.sim().run_for(sim::msec(500));
  const auto sched = check::decode_schedule("c1/600/400");
  EXPECT_TRUE(sched.is_ok());
  check::run_schedule(bed, *sched);
  bed.sim().run_for(sim::sec(3));  // let recovery_done and post-heal ops land
  stop = true;
  bed.sim().run_for(sim::msec(200));

  if (complete_phase != nullptr) {
    *complete_phase = false;
    for (const obs::FaultPhase& ph : bed.timeline().phases()) {
      if (ph.detected >= 0 && ph.isolated >= 0 && ph.recovered >= 0) {
        *complete_phase = true;
      }
    }
  }
  if (nemesis_span != nullptr) {
    *nemesis_span = false;
    for (const obs::TraceEvent& ev : bed.trace().events()) {
      if (std::string_view(ev.cat) == "nemesis") *nemesis_span = true;
    }
  }
  if (chrome != nullptr) *chrome = bed.chrome_json();
  return bed.timeline().to_json().dump();
}

TEST(TimelineIntegration, SameSeedRunsSerializeByteIdenticalJson) {
  bool complete = false;
  bool span = false;
  const std::string a = nemesis_run_timeline_json(7, &complete, &span);
  const std::string b = nemesis_run_timeline_json(7, nullptr, nullptr);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The crash fault shows a full detect -> isolate -> recover timeline
  // and the nemesis left a fault bar in the trace.
  EXPECT_TRUE(complete);
  EXPECT_TRUE(span);
}

TEST(ChromeExport, SplicesCounterTracksAndFaultBarByteIdentically) {
  std::string a;
  std::string b;
  ASSERT_FALSE(nemesis_run_timeline_json(7, nullptr, nullptr, &a).empty());
  (void)nemesis_run_timeline_json(7, nullptr, nullptr, &b);
  EXPECT_EQ(a, b);
  // The timeline and health counter tracks are spliced into traceEvents,
  // and the crash step left its fault bar.
  const std::size_t close = a.rfind("\n]");
  ASSERT_NE(close, std::string::npos);
  const auto counter = [&a](const std::string& name) {
    return a.find("{\"ph\":\"C\",\"pid\":0,\"name\":\"" + name);
  };
  EXPECT_LT(counter("timeline.ops_ok\""), close);
  EXPECT_LT(counter("health."), close);
  EXPECT_NE(a.find("\"cat\":\"nemesis\""), std::string::npos);
}

TEST(Watchdog, ConvertsLivelockIntoStructuredStallReport) {
  check::FuzzOptions o;
  o.flavor = harness::Flavor::group_nvram;
  o.seed = 5;
  o.clients = 2;
  o.schedule = {check::FaultStep{.kind = check::FaultStep::Kind::crash,
                                 .victim = 1,
                                 .fault = sim::msec(400),
                                 .settle = sim::msec(300)}};
  o.watchdog = sim::sec(5);
  o.debug_stall = true;  // crash every server after the storm, no restart
  const check::FuzzReport r = check::run_one(o);
  EXPECT_TRUE(r.stalled);
  EXPECT_NE(r.failure.find("[watchdog]"), std::string::npos);
  EXPECT_NE(r.stall_report.find("\"stall\": true"), std::string::npos);
  EXPECT_NE(r.stall_report.find("\"servers\""), std::string::npos);
}

TEST(Watchdog, QuietTailWithHealthyServiceDoesNotStall) {
  check::FuzzOptions o;
  o.flavor = harness::Flavor::group_nvram;
  o.seed = 5;
  o.clients = 2;
  o.schedule = {check::FaultStep{.kind = check::FaultStep::Kind::crash,
                                 .victim = 1,
                                 .fault = sim::msec(400),
                                 .settle = sim::msec(300)}};
  o.watchdog = sim::sec(5);
  const check::FuzzReport r = check::run_one(o);
  EXPECT_FALSE(r.stalled);
  EXPECT_TRUE(r.ok) << r.failure;
}

}  // namespace
}  // namespace amoeba
