#!/bin/sh
# Fails when src/ takes RPC requests outside src/rpc/: every server runs on
# rpc::RpcServer::serve, the one loop that takes a request, runs the
# server's handler and puts its reply (DESIGN.md §4). A server supplies a
# handler, not a loop of its own.
#
#     tests/lint_one_serving_loop.sh [SRC_DIR]    # default: this repo's src/
src=${1:-$(dirname "$0")/../src}
if [ ! -f "$src/rpc/rpc.cc" ]; then
  echo "no serving loop at $src/rpc/rpc.cc" >&2
  exit 2
fi
hits=$(grep -rnF 'get_request(' "$src" | grep -vF "$src/rpc/")
if [ -n "$hits" ]; then
  echo "get_request() outside src/rpc/; hand rpc::RpcServer::serve a handler:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "one serving loop"
