#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/hash.h"

namespace amoeba::obs {

const char* leg_name(Leg leg) {
  switch (leg) {
    case Leg::none:
      return "none";
    case Leg::network:
      return "network";
    case Leg::queueing:
      return "queueing";
    case Leg::cpu:
      return "cpu";
    case Leg::disk:
      return "disk";
    case Leg::nvram:
      return "nvram";
    case Leg::lock_wait:
      return "lock_wait";
  }
  return "?";
}

std::string Trace::to_chrome_json() const {
  std::string out;
  out.reserve(count_ * 128 + 64);
  out += "{\"traceEvents\":[\n";
  char line[512];
  bool first = true;
  for_each([&](const TraceEvent& ev) {
    if (!first) out += ",\n";
    first = false;
    char args[224];
    if (ev.span != 0) {
      std::snprintf(args, sizeof(args),
                    "{\"v\":%" PRIu64 ",\"trace\":%" PRIu64
                    ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                    ",\"leg\":\"%s\"}",
                    ev.arg, ev.trace, ev.span, ev.parent, leg_name(ev.leg));
    } else if (ev.trace != 0) {
      std::snprintf(args, sizeof(args),
                    "{\"v\":%" PRIu64 ",\"trace\":%" PRIu64 "}", ev.arg,
                    ev.trace);
    } else {
      std::snprintf(args, sizeof(args), "{\"v\":%" PRIu64 "}", ev.arg);
    }
    if (ev.dur < 0) {
      std::snprintf(line, sizeof(line),
                    "{\"ph\":\"i\",\"ts\":%" PRId64
                    ",\"s\":\"p\",\"cat\":\"%s\",\"name\":\"%s\","
                    "\"pid\":%u,\"tid\":0,\"args\":%s}",
                    ev.ts, ev.cat, ev.name, ev.pid, args);
    } else {
      std::snprintf(line, sizeof(line),
                    "{\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                    ",\"cat\":\"%s\",\"name\":\"%s\","
                    "\"pid\":%u,\"tid\":0,\"args\":%s}",
                    ev.ts, ev.dur, ev.cat, ev.name, ev.pid, args);
    }
    out += line;
  });
  // Perfetto flow events ("s" at the parent, "f" at the child) along
  // parent-span links, so the causal tree renders as arrows across
  // machine lanes. Binding is by (cat, name, id) = ("flow", "dep", span).
  std::unordered_map<std::uint64_t, std::pair<sim::Time, std::uint32_t>>
      where;  // span id -> (start ts, pid)
  for_each([&](const TraceEvent& ev) {
    if (ev.span != 0) where.emplace(ev.span, std::make_pair(ev.ts, ev.pid));
  });
  for_each([&](const TraceEvent& ev) {
    if (ev.span == 0 || ev.parent == 0) return;
    auto it = where.find(ev.parent);
    if (it == where.end()) return;  // parent fell off the ring
    std::snprintf(line, sizeof(line),
                  ",\n{\"ph\":\"s\",\"ts\":%" PRId64
                  ",\"cat\":\"flow\",\"name\":\"dep\",\"id\":%" PRIu64
                  ",\"pid\":%u,\"tid\":0}"
                  ",\n{\"ph\":\"f\",\"bp\":\"e\",\"ts\":%" PRId64
                  ",\"cat\":\"flow\",\"name\":\"dep\",\"id\":%" PRIu64
                  ",\"pid\":%u,\"tid\":0}",
                  it->second.first, ev.span, it->second.second, ev.ts,
                  ev.span, ev.pid);
    out += line;
  });
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_u64(h, dropped_);
  for_each([&h](const TraceEvent& ev) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(ev.ts));
    h = fnv1a_u64(h, static_cast<std::uint64_t>(ev.dur));
    h = fnv1a(h, ev.cat, std::strlen(ev.cat));
    h = fnv1a(h, ev.name, std::strlen(ev.name));
    h = fnv1a_u64(h, ev.pid);
    h = fnv1a_u64(h, ev.arg);
    h = fnv1a_u64(h, ev.trace);
    h = fnv1a_u64(h, ev.span);
    h = fnv1a_u64(h, ev.parent);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(ev.leg));
  });
  return h;
}

}  // namespace amoeba::obs
