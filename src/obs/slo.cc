#include "obs/slo.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "obs/metrics.h"

namespace amoeba::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// `v`, or null when it is < 0: a mark never reached, a rate over no runs.
Json or_null(double v) { return v < 0 ? Json::null() : Json::num(v); }

/// True when `ts` falls inside some fault's outstanding interval
/// [injected, recovered) — or [injected, inf) for a never-recovered one.
bool fault_outstanding(const std::vector<FaultPhase>& phases, sim::Time ts) {
  for (const FaultPhase& ph : phases) {
    if (ts < ph.injected) continue;
    if (ph.recovered < 0 || ts < ph.recovered) return true;
  }
  return false;
}

PhaseSlice slice(const Timeline& tl, const char* name, sim::Time begin,
                 sim::Time end) {
  PhaseSlice s;
  s.name = name;
  s.begin = begin;
  s.end = end;
  if (end <= begin) return s;
  const sim::Duration w = tl.window_width();
  for (std::size_t i = 0; i < tl.windows().size(); ++i) {
    const sim::Time w0 = tl.window_start(i);
    if (w0 + w <= begin || w0 >= end) continue;
    s.ok += tl.windows()[i].total_ok();
    s.err += tl.windows()[i].total_err();
  }
  const LogHistogram h = tl.merged_latency(begin, end);
  if (h.n() != 0) s.p99_ms = h.percentile_us(99) / 1000.0;
  if (s.ok + s.err != 0) {
    s.error_rate =
        static_cast<double>(s.err) / static_cast<double>(s.ok + s.err);
  }
  return s;
}

}  // namespace

SloReport evaluate_slo(const Timeline& tl, const SloTargets& targets) {
  SloReport r;
  r.targets = targets;

  const auto& wins = tl.windows();
  r.windows_total = wins.size();
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const TimelineWindow& w = wins[i];
    const std::uint64_t n = w.total_ok() + w.total_err();
    bool bad = false;
    if (n == 0) {
      if (fault_outstanding(tl.phases(), tl.window_start(i))) {
        bad = true;
        ++r.windows_blackout;
      }
    } else {
      const double p99 = w.latency.percentile_us(99) / 1000.0;
      const double er =
          static_cast<double>(w.total_err()) / static_cast<double>(n);
      bad = p99 > targets.p99_ms || er > targets.max_error_rate;
    }
    if (bad) ++r.windows_bad;
  }
  if (r.windows_total != 0) {
    r.availability = 1.0 - static_cast<double>(r.windows_bad) /
                               static_cast<double>(r.windows_total);
    const double budget = static_cast<double>(r.windows_total) *
                          (1.0 - targets.availability);
    r.error_budget_burn =
        budget > 0 ? static_cast<double>(r.windows_bad) / budget : 0.0;
  }

  const LogHistogram all = tl.merged_latency();
  if (all.n() != 0) r.overall_p99_ms = all.percentile_us(99) / 1000.0;
  if (tl.ops_ok() + tl.ops_err() != 0) {
    r.overall_error_rate =
        static_cast<double>(tl.ops_err()) /
        static_cast<double>(tl.ops_ok() + tl.ops_err());
  }

  const sim::Time series_end =
      wins.empty() ? 0
                   : tl.window_start(wins.size() - 1) + tl.window_width();
  for (const FaultPhase& ph : tl.phases()) {
    FaultScore f;
    f.phase = ph;
    if (ph.detected >= 0) {
      f.time_to_detect_ms = sim::to_ms(ph.detected - ph.injected);
    }
    if (ph.isolated >= 0) {
      f.time_to_isolate_ms = sim::to_ms(ph.isolated - ph.injected);
    }
    if (ph.recovered >= 0 && ph.healed >= 0) {
      f.time_to_recover_ms = sim::to_ms(ph.recovered - ph.healed);
    }
    if (ph.rejoined >= 0 && ph.healed >= 0) {
      f.time_to_rejoin_ms = sim::to_ms(ph.rejoined - ph.healed);
    }
    // Phase slices, clamped to what actually happened: baseline is the
    // window-width stretch before injection, impact runs while the fault
    // is live, repair from heal to recovery, restored after recovery.
    const sim::Time heal = ph.healed >= 0 ? ph.healed : series_end;
    const sim::Time rec = ph.recovered >= 0 ? ph.recovered : series_end;
    f.slices.push_back(slice(
        tl, "baseline",
        std::max<sim::Time>(0, ph.injected - 10 * tl.window_width()),
        ph.injected));
    f.slices.push_back(slice(tl, "impact", ph.injected, heal));
    f.slices.push_back(slice(tl, "repair", heal, rec));
    f.slices.push_back(slice(tl, "restored", rec,
                             std::min(series_end,
                                      rec + 10 * tl.window_width())));
    r.faults.push_back(std::move(f));
  }
  return r;
}

Json slo_json(const SloReport& r) {
  Json root = Json::object();
  Json t = Json::object();
  t.set("p99_ms", Json::num(r.targets.p99_ms));
  t.set("max_error_rate", Json::num(r.targets.max_error_rate));
  t.set("availability", Json::num(r.targets.availability));
  root.set("targets", std::move(t));
  root.set("windows_total", Json::uinteger(r.windows_total));
  root.set("windows_bad", Json::uinteger(r.windows_bad));
  root.set("windows_blackout", Json::uinteger(r.windows_blackout));
  root.set("availability", Json::num(r.availability));
  root.set("error_budget_burn", Json::num(r.error_budget_burn));
  root.set("overall_p99_ms", Json::num(r.overall_p99_ms));
  root.set("overall_error_rate", Json::num(r.overall_error_rate));

  Json faults = Json::array();
  for (const FaultScore& f : r.faults) {
    Json jf = Json::object();
    jf.set("fault", Json::str(f.phase.fault));
    jf.set("victim", Json::integer(f.phase.victim));
    jf.set("complete", Json::boolean(f.complete()));
    jf.set("time_to_detect_ms", or_null(f.time_to_detect_ms));
    jf.set("time_to_isolate_ms", or_null(f.time_to_isolate_ms));
    jf.set("time_to_recover_ms", or_null(f.time_to_recover_ms));
    jf.set("time_to_rejoin_ms", or_null(f.time_to_rejoin_ms));
    jf.set("detected_by", Json::str(f.phase.detected_by));
    Json slices = Json::array();
    for (const PhaseSlice& s : f.slices) {
      Json js = Json::object();
      js.set("phase", Json::str(s.name));
      js.set("begin_ms", Json::num(sim::to_ms(s.begin)));
      js.set("end_ms", Json::num(sim::to_ms(s.end)));
      js.set("ok", Json::uinteger(s.ok));
      js.set("err", Json::uinteger(s.err));
      js.set("p99_ms", s.has_data() ? Json::num(s.p99_ms) : Json::null());
      js.set("error_rate",
             s.has_data() ? Json::num(s.error_rate) : Json::null());
      slices.push(std::move(js));
    }
    jf.set("slices", std::move(slices));
    faults.push(std::move(jf));
  }
  root.set("faults", std::move(faults));
  return root;
}

void print_slo(const SloReport& r, std::string& out) {
  appendf(out,
          "  SLO targets: p99 <= %.0f ms, error rate <= %.2f%%, "
          "availability >= %.1f%%\n",
          r.targets.p99_ms, r.targets.max_error_rate * 100,
          r.targets.availability * 100);
  appendf(out,
          "  windows: %llu total, %llu bad (%llu blackout)  "
          "availability %.1f%%  budget burn %.2fx\n",
          static_cast<unsigned long long>(r.windows_total),
          static_cast<unsigned long long>(r.windows_bad),
          static_cast<unsigned long long>(r.windows_blackout),
          r.availability * 100, r.error_budget_burn);
  appendf(out, "  overall: p99 %.1f ms, error rate %.2f%%\n",
          r.overall_p99_ms, r.overall_error_rate * 100);
  for (const FaultScore& f : r.faults) {
    appendf(out, "  fault %-16s victim %d  %s\n", f.phase.fault,
            f.phase.victim,
            f.complete() ? "detect->isolate->recover COMPLETE"
                         : "phase timeline INCOMPLETE");
    const auto ms = [](double v, char* buf, std::size_t n) -> const char* {
      if (v < 0) return "   n/a";
      std::snprintf(buf, n, "%6.1f", v);
      return buf;
    };
    char b1[32], b2[32], b3[32], b4[32];
    appendf(out,
            "    detect %s ms (%s)   isolate %s ms   recover %s ms   "
            "rejoin %s ms\n",
            ms(f.time_to_detect_ms, b1, sizeof b1),
            f.phase.detected_by[0] != '\0' ? f.phase.detected_by : "-",
            ms(f.time_to_isolate_ms, b2, sizeof b2),
            ms(f.time_to_recover_ms, b3, sizeof b3),
            ms(f.time_to_rejoin_ms, b4, sizeof b4));
    for (const PhaseSlice& s : f.slices) {
      if (s.has_data()) {
        appendf(out,
                "    %-9s [%8.1f, %8.1f) ms  ops %5llu  err %4llu "
                "(%5.1f%%)  p99 %7.1f ms\n",
                s.name, sim::to_ms(s.begin), sim::to_ms(s.end),
                static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.err),
                s.error_rate * 100, s.p99_ms);
      } else {
        appendf(out, "    %-9s [%8.1f, %8.1f) ms  no completions\n",
                s.name, sim::to_ms(s.begin), sim::to_ms(s.end));
      }
    }
  }
}

void SloFleet::add(const std::string& kind, const SloReport& r,
                   const HealthVerdict& h) {
  bool all_complete = !r.faults.empty();
  for (const FaultScore& f : r.faults) all_complete &= f.complete();
  for (Kind* k : {&kinds_[kind], &fleet_}) {
    ++k->runs;
    if (all_complete) ++k->complete;
    for (const FaultScore& f : r.faults) {
      k->worst_detect_ms = std::max(k->worst_detect_ms, f.time_to_detect_ms);
      k->worst_isolate_ms =
          std::max(k->worst_isolate_ms, f.time_to_isolate_ms);
      k->worst_recover_ms =
          std::max(k->worst_recover_ms, f.time_to_recover_ms);
      k->worst_rejoin_ms = std::max(k->worst_rejoin_ms, f.time_to_rejoin_ms);
    }
    k->min_availability = std::min(k->min_availability, r.availability);
    k->p99s_ms.insert(std::upper_bound(k->p99s_ms.begin(), k->p99s_ms.end(),
                                       r.overall_p99_ms),
                      r.overall_p99_ms);
    k->suspects += h.suspects;
    k->false_suspects += h.false_suspects;
    if (h.gray) {
      ++k->gray_runs;
      if (h.detected) ++k->gray_detected;
    }
  }
}

double SloFleet::Kind::p99_of_p99s_ms() const {
  return p99s_ms.empty() ? -1 : percentile(p99s_ms, 99);
}

double SloFleet::Kind::false_negative_rate() const {
  return gray_runs == 0 ? -1
                        : 1.0 - static_cast<double>(gray_detected) /
                                    static_cast<double>(gray_runs);
}

void SloFleet::add_json(Json& root) const {
  Json by_kind = Json::object();
  for (const auto& [name, k] : kinds_) {
    Json j = Json::object();
    j.set("runs", Json::uinteger(k.runs));
    j.set("complete", Json::uinteger(k.complete));
    j.set("worst_time_to_detect_ms", or_null(k.worst_detect_ms));
    j.set("worst_time_to_isolate_ms", or_null(k.worst_isolate_ms));
    j.set("worst_time_to_recover_ms", or_null(k.worst_recover_ms));
    j.set("worst_time_to_rejoin_ms", or_null(k.worst_rejoin_ms));
    j.set("min_availability", Json::num(k.min_availability));
    j.set("p99_of_p99s_ms", or_null(k.p99_of_p99s_ms()));
    j.set("suspects", Json::uinteger(k.suspects));
    j.set("false_suspects", Json::uinteger(k.false_suspects));
    if (k.gray_runs != 0) {
      j.set("gray_detected", Json::uinteger(k.gray_detected));
      j.set("suspicion_false_negative_rate",
            Json::num(k.false_negative_rate()));
    }
    by_kind.set(name, std::move(j));
  }
  root.set("by_fault_kind", std::move(by_kind));

  Json fleet = Json::object();
  fleet.set("worst_time_to_recover_ms", or_null(fleet_.worst_recover_ms));
  fleet.set("p99_of_p99s_ms", or_null(fleet_.p99_of_p99s_ms()));
  // Mean false suspicion transitions per scored case (a healthy fleet
  // sits at exactly 0), and the fraction of gray faults the differential
  // detector failed to name.
  fleet.set("suspicion_false_positive_rate",
            fleet_.runs == 0
                ? Json::null()
                : Json::num(static_cast<double>(fleet_.false_suspects) /
                            static_cast<double>(fleet_.runs)));
  fleet.set("suspicion_false_negative_rate",
            or_null(fleet_.false_negative_rate()));
  root.set("fleet", std::move(fleet));
}

void SloFleet::print(std::string& out) const {
  for (const auto& [name, k] : kinds_) {
    appendf(out,
            "  %-22s runs %4llu  complete %4llu  worst recover %8.1f ms  "
            "min avail %5.1f%%  p99-of-p99s %7.1f ms\n",
            name.c_str(), static_cast<unsigned long long>(k.runs),
            static_cast<unsigned long long>(k.complete), k.worst_recover_ms,
            k.min_availability * 100, k.p99_of_p99s_ms());
  }
  if (fleet_.runs != 0) {
    appendf(out,
            "  suspicion quality: %llu false suspicion(s) over %llu scored "
            "case(s); %llu/%llu gray fault(s) detected\n",
            static_cast<unsigned long long>(fleet_.false_suspects),
            static_cast<unsigned long long>(fleet_.runs),
            static_cast<unsigned long long>(fleet_.gray_detected),
            static_cast<unsigned long long>(fleet_.gray_runs));
  }
}

}  // namespace amoeba::obs
