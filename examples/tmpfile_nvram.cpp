// The paper's Sec. 4.1 /tmp optimisation, live: with the NVRAM backend, a
// compiler-style temporary (append a name, delete it shortly after) costs
// no disk operations at all — the delete cancels the append while both are
// still in the 24 KB NVRAM log.
//
//   $ ./examples/tmpfile_nvram
#include <cstdio>

#include "bullet/bullet.h"
#include "dir/client.h"
#include "harness/workload.h"

using namespace amoeba;

namespace {

void run_phase(harness::Testbed& bed, const cap::Capability& home,
               const char* label, int pairs) {
  const std::uint64_t& disk_writes = bed.metrics().counter("disk", "writes");
  const std::uint64_t disk_before = disk_writes;
  // Each delete that cancels its append removes the append's log record.
  const std::uint64_t& cancels = bed.metrics().counter("nvram", "cancels");
  const std::uint64_t cancels_before = cancels;

  bool done = false;
  net::Machine& cm = bed.client(0);
  sim::Time t0 = bed.sim().now();
  sim::Time t1 = t0;
  cm.spawn("compiler", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    bullet::BulletClient files(rpc, bed.file_port());
    for (int i = 0; i < pairs; ++i) {
      // Phase 1 of the compiler writes a temporary...
      auto obj = files.create(to_buffer("intermediate code"));
      if (!obj.is_ok()) break;
      (void)dc.append_row(home, "cc.tmp", {*obj});
      // ...phase 2 reads it back and the driver removes it.
      auto found = dc.lookup(home, "cc.tmp");
      if (found.is_ok()) (void)files.read(*found);
      (void)dc.delete_row(home, "cc.tmp");
      (void)files.del(*obj);
    }
    t1 = bed.sim().now();
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));
  const std::uint64_t cancels_after = cancels;
  bed.sim().run_for(sim::sec(1));  // let any flusher run

  std::printf("%-22s %3d tmp-file cycles in %7.1f ms  "
              "(%5.1f ms/cycle), %2llu extra disk writes, "
              "%llu appends cancelled in NVRAM\n",
              label, pairs, sim::to_ms(t1 - t0),
              sim::to_ms(t1 - t0) / pairs,
              static_cast<unsigned long long>(disk_writes - disk_before),
              static_cast<unsigned long long>(cancels_after - cancels_before));
}

}  // namespace

int main() {
  std::printf("tmp-file workload: directory-service side of a compiler run\n\n");
  for (auto flavor : {harness::Flavor::group, harness::Flavor::group_nvram}) {
    harness::Testbed bed({.flavor = flavor, .clients = 1, .seed = 41});
    if (!bed.wait_ready()) return 1;
    const Result<cap::Capability> home = harness::setup_dir(bed, sim::sec(8));
    if (!home.is_ok()) return 1;
    bed.sim().run_for(sim::sec(1));  // flush the create itself
    run_phase(bed, *home, harness::flavor_name(flavor), 20);
  }
  std::printf(
      "\nThe NVRAM service runs the cycle ~4x faster and — because each\n"
      "delete cancels its append inside NVRAM — performs zero disk writes\n"
      "for the directory updates (paper Sec. 4.1).\n");
  return 0;
}
