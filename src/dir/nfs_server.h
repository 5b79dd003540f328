// The Sun-NFS-like baseline of the paper's Fig. 7: one server, one disk,
// synchronous directory metadata writes, no replication, no fault tolerance
// and no cache consistency. It speaks the same directory wire protocol, so
// the same client and workloads run against it, plus a bullet-protocol file
// endpoint for the tmp-file experiment (modelling a local /usr/tmp with
// write-behind data and synchronous metadata).
#pragma once

#include "net/cluster.h"

namespace amoeba::dir {

struct ServerOptions;  // dir/serve.h

/// Installs the server on `machine`; it answers on kDirPort and
/// kNfsFilePort and reads none of `opts`.
void install_nfs_dir_server(net::Machine& machine, const ServerOptions& opts);

}  // namespace amoeba::dir
