// The paper's Sec. 3.2 recovery walk-through, executed for real: after a
// total failure, the service may only resume once the set of servers that
// possibly performed the last update ("the last ones to fail", computed by
// Skeen's algorithm over exchanged mourned sets) is present.
//
//   Timeline (server numbers as in the paper, 1..3 -> dir0..dir2):
//     all three up -> dir2 crashes -> {dir0,dir1} rebuild and commit an
//     update -> dir1 and dir0 crash -> dir0 returns (alone: blocked) ->
//     dir2 returns ({0,2}: majority but still blocked!) -> dir1 returns
//     (the last set is present: service resumes with the update intact).
//
//   $ ./examples/last_to_fail
#include <cstdio>

#include "dir/client.h"
#include "harness/workload.h"

using namespace amoeba;

namespace {

const char* state_of(harness::Testbed& bed, int i) {
  if (!bed.dir_server(i).up()) return "DOWN";
  return dir::group_dir_stats(bed.dir_server(i)).in_recovery ? "recovering"
                                                             : "serving";
}

void show(harness::Testbed& bed, const char* event) {
  std::printf("[t=%7.2fs] %-46s dir0=%-10s dir1=%-10s dir2=%-10s\n",
              bed.sim().now() / 1e6, event, state_of(bed, 0),
              state_of(bed, 1), state_of(bed, 2));
}

}  // namespace

int main() {
  harness::Testbed bed({.flavor = harness::Flavor::group, .clients = 1});
  if (!bed.wait_ready()) return 1;
  show(bed, "service up (3 replicas)");

  // Setup: one directory, through any server.
  const Result<cap::Capability> setup = harness::setup_dir(bed, sim::sec(8));
  if (!setup.is_ok()) return 1;
  const cap::Capability home = *setup;
  net::Machine& cm = bed.client(0);

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  show(bed, "dir2 crashes; {dir0,dir1} rebuild");

  // The update only {dir0, dir1} know about.
  bool appended = false;
  cm.spawn("update", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    cap::Capability payload;
    payload.object = 1993;
    for (int i = 0; i < 50 && !appended; ++i) {
      if (dc.append_row(home, "the-late-update", {payload}).is_ok()) {
        appended = true;
      } else {
        bed.sim().sleep_for(sim::msec(200));
        rpc.flush_port_cache(bed.dir_port());
      }
    }
  });
  bed.sim().run_for(sim::sec(8));
  show(bed, appended ? "append('the-late-update') committed by {0,1}"
                     : "append FAILED");

  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::msec(500));
  show(bed, "dir1, then dir0 crash: total failure");

  bed.cluster().restart(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(5));
  show(bed, "dir0 returns alone: 1/3 is no majority -> blocked");

  bed.cluster().restart(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(6));
  show(bed, "dir2 returns: {0,2} is a majority BUT last set {0,1} absent");

  bed.cluster().restart(bed.dir_server(1).id());
  for (int i = 0; i < 200; ++i) {
    bed.sim().run_for(sim::msec(100));
    if (bed.group_server_ready(0) && bed.group_server_ready(1)) break;
  }
  show(bed, "dir1 (in the last set) returns: recovery completes");

  // The late update must have survived.
  bool found = false;
  std::string last_error;
  cm.spawn("verify", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < 80 && !found; ++i) {
      auto res = dc.lookup(home, "the-late-update");
      if (res.is_ok()) {
        found = true;
      } else {
        last_error = res.status().to_string();
        bed.sim().sleep_for(sim::msec(200));
        rpc.flush_port_cache(bed.dir_port());
      }
    }
  });
  bed.sim().run_for(sim::sec(40));
  if (!found) std::printf("last error: %s\n", last_error.c_str());
  std::printf("\nlookup('the-late-update') after full recovery: %s\n",
              found ? "FOUND — no committed update was lost"
                    : "MISSING — recovery bug!");
  return found ? 0 : 1;
}
