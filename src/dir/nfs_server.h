// The Sun-NFS-like baseline of the paper's Fig. 7: one server, one disk,
// synchronous directory metadata writes, no replication, no fault tolerance
// and no cache consistency. It speaks the same directory wire protocol, so
// the same client and workloads run against it, plus a bullet-protocol file
// endpoint for the tmp-file experiment (modelling a local /usr/tmp with
// write-behind data and synchronous metadata).
#pragma once

#include <cstdint>

#include "disk/vdisk.h"
#include "net/cluster.h"
#include "sim/time.h"

namespace amoeba::dir {

struct NfsDirOptions {
  net::Port dir_port{3000};
  net::Port file_port{3001};
  int server_threads = 4;
};

void install_nfs_dir_server(net::Machine& machine, NfsDirOptions opts);

/// The server's disk; it survives crashes.
disk::VirtualDisk& nfs_disk(net::Machine& machine);

}  // namespace amoeba::dir
