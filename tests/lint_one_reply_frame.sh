#!/bin/sh
# Fails when src/ reads or writes a service reply's status byte outside the
# reply codec, src/rpc/reply.h: every RPC service's `u8 errc | payload`
# reply is encoded by rpc::reply_ok/reply_error and decoded by
# rpc::decode_reply/reply_status (DESIGN.md §4). A read casts a byte to
# Errc; a write casts an Errc (or a status's code) to a byte.
#
#     tests/lint_one_reply_frame.sh [SRC_DIR]    # default: this repo's src/
src=${1:-$(dirname "$0")/../src}
if [ ! -f "$src/rpc/reply.h" ]; then
  echo "no reply codec at $src/rpc/reply.h" >&2
  exit 2
fi
hits=$(grep -rnE \
  'static_cast<Errc>\(|static_cast<std::uint8_t>\((Errc::|[a-z_.>-]*code\(\)\))' \
  "$src" | grep -vF "$src/rpc/reply.h:")
if [ -n "$hits" ]; then
  echo "reply status byte outside src/rpc/reply.h; use its codec:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "one reply frame codec"
