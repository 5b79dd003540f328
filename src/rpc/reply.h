// The service reply frame. Every service that answers over RPC (Bullet,
// disk, directory, group admin, RPC peer, the NFS file endpoint) replies
// with a u8 Errc and, when it is `ok`, the op's payload. This header is the
// frame's only writer and reader. A reply comes off the network, so the
// decoder treats it as hostile: an empty reply, a status byte that names no
// Errc or a payload its reader cannot decode is `bad_request`, never an
// exception out of the call.
#pragma once

#include <type_traits>

#include "common/buffer.h"
#include "common/status.h"

namespace amoeba::rpc {

inline Buffer reply_error(Errc code) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(code));
  return w.take();
}

inline Buffer reply_ok(const Buffer& payload = {}) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Errc::ok));
  w.raw(payload);
  return w.take();
}

/// Decodes RpcClient::trans()'s result: the transport's status, the
/// service's non-ok status, or, for an ok reply, what `read(Reader&)` makes
/// of the payload. A DecodeError becomes bad_request.
template <class Read>
auto decode_reply(const Result<Buffer>& res, Read&& read)
    -> Result<std::invoke_result_t<Read&, Reader&>> {
  if (!res.is_ok()) return res.status();
  try {
    Reader r(*res);
    const auto code = static_cast<Errc>(r.u8());
    if (code > kLastErrc) throw DecodeError("unknown status in reply");
    if (code != Errc::ok) return Status::error(code, "server error");
    return read(r);
  } catch (const DecodeError& e) {
    return Status::error(Errc::bad_request, e.what());
  }
}

/// The status of trans()'s result; an ok reply's payload is not read.
inline Status reply_status(const Result<Buffer>& res) {
  return decode_reply(res, [](Reader&) { return true; }).status();
}

}  // namespace amoeba::rpc
