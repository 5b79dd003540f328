// Property and robustness tests of the wire codecs in dir/proto.cc and of
// the servers' admin and peer replies: every request builder must
// round-trip through peek_op/apply, and no truncated, corrupted or random
// buffer may do worse than a clean rejection — a bad_request reply from
// the request decoders, a bad_request status from the reply decoders, a
// DecodeError from the state codecs — because servers and their peers
// feed network bytes straight into them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rand.h"
#include "dir/group_server.h"
#include "dir/proto.h"
#include "dir/rpc_server.h"
#include "dir/types.h"
#include "rpc/reply.h"

namespace amoeba::dir {
namespace {

constexpr net::Port kPort{77};

cap::Capability some_cap(std::uint32_t n) {
  cap::Capability c;
  c.port = net::Port{0xabc};
  c.object = n;
  c.rights = cap::kRightsAll;
  c.check = mix64(n);
  return c;
}

/// A populated state plus the owner capability of its one directory.
struct Fixture {
  DirState st{kPort};
  cap::Capability dir;

  Fixture() {
    DirState::ApplyEffect eff;
    Buffer reply = st.apply(make_create_dir({"owner"}), /*secret=*/1234,
                            /*seqno=*/1, &eff);
    Reader r(reply);
    EXPECT_EQ(r.u8(), 0);  // Errc::ok
    dir = cap::Capability::decode(r);
    eff = {};
    Buffer a = st.apply(make_append_row(dir, "row", {some_cap(9)}), 0, 2, &eff);
    EXPECT_TRUE(rpc::reply_status(a).is_ok());
  }
};

/// One well-formed request of every op, against `f`'s directory.
std::vector<Buffer> all_requests(const Fixture& f) {
  return {
      make_create_dir({"owner", "group"}),
      make_delete_dir(f.dir),
      make_list_dir(f.dir),
      make_append_row(f.dir, "name", {some_cap(1), some_cap(2)}),
      make_chmod_row(f.dir, "row", 0, cap::kRightRead),
      make_delete_row(f.dir, "row"),
      make_lookup_set({{f.dir, "row"}}),
      make_replace_set({{f.dir, "row", some_cap(3)}}),
  };
}

/// Feed a (possibly mangled) request through the full server-side decode
/// path. Every outcome other than a crash or an unexpected exception type
/// is acceptable; a reply, when produced, must itself parse.
void must_reject_cleanly(const Buffer& request) {
  Fixture f;
  auto op = peek_op(request);
  Buffer reply;
  if (op.is_ok() && is_read_op(*op)) {
    reply = f.st.execute_read(request);
  } else {
    DirState::ApplyEffect eff;
    reply = f.st.apply(request, /*secret=*/7, /*seqno=*/3, &eff);
  }
  ASSERT_FALSE(reply.empty());
  (void)rpc::reply_status(reply);  // must parse without throwing
  // The state must remain serializable after the attempt.
  Buffer snap = f.st.snapshot();
  DirState again = DirState::from_snapshot(snap, kPort);
  EXPECT_EQ(again.snapshot(), snap);
}

// ----------------------------------------------------------- round trips

TEST(ProtoFuzz, BuildersPeekTheirOwnOp) {
  Fixture f;
  const std::vector<Buffer> reqs = all_requests(f);
  const std::vector<DirOp> want = {
      DirOp::create_dir, DirOp::delete_dir,  DirOp::list_dir,
      DirOp::append_row, DirOp::chmod_row,   DirOp::delete_row,
      DirOp::lookup_set, DirOp::replace_set,
  };
  ASSERT_EQ(reqs.size(), want.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    auto op = peek_op(reqs[i]);
    ASSERT_TRUE(op.is_ok()) << i;
    EXPECT_EQ(*op, want[i]) << i;
    EXPECT_EQ(is_read_op(*op),
              want[i] == DirOp::list_dir || want[i] == DirOp::lookup_set);
  }
}

TEST(ProtoFuzz, EveryWellFormedRequestExecutes) {
  for (std::size_t i = 0; i < 8; ++i) {
    Fixture f;
    Buffer req = all_requests(f)[i];
    auto op = peek_op(req);
    ASSERT_TRUE(op.is_ok());
    Buffer reply;
    if (is_read_op(*op)) {
      reply = f.st.execute_read(req);
    } else {
      DirState::ApplyEffect eff;
      reply = f.st.apply(req, 55, 9, &eff);
      EXPECT_TRUE(eff.any_change) << "op " << i;
    }
    EXPECT_TRUE(rpc::reply_status(reply).is_ok()) << "op " << i;
  }
}

TEST(ProtoFuzz, SnapshotRoundTripsPopulatedState) {
  Fixture f;
  Buffer snap = f.st.snapshot();
  DirState copy = DirState::from_snapshot(snap, kPort);
  EXPECT_EQ(copy.snapshot(), snap);
  EXPECT_EQ(copy.table().size(), f.st.table().size());
  EXPECT_EQ(copy.dirs().size(), f.st.dirs().size());
  EXPECT_EQ(copy.max_dir_seqno(), f.st.max_dir_seqno());
}

// ----------------------------------------------------------- truncation

TEST(ProtoFuzz, EveryTruncationOfEveryRequestRejectsCleanly) {
  Fixture f;
  for (const Buffer& req : all_requests(f)) {
    for (std::size_t len = 0; len < req.size(); ++len) {
      Buffer cut(req.begin(), req.begin() + static_cast<std::ptrdiff_t>(len));
      must_reject_cleanly(cut);
    }
  }
}

/// Every proper prefix of `reply`, each decoded by `decode`, must be a
/// bad_request status; the whole reply must decode.
template <class Decode>
void every_truncation_is_bad_request(const Buffer& reply, Decode decode) {
  ASSERT_TRUE(decode(Result<Buffer>(reply)).is_ok());
  for (std::size_t len = 0; len < reply.size(); ++len) {
    Buffer cut(reply.begin(), reply.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(decode(Result<Buffer>(cut)).code(), Errc::bad_request) << len;
  }
}

TEST(ProtoFuzz, EveryTruncationOfEveryAdminAndPeerReplyIsAStatus) {
  Fixture f;
  const Buffer snap = f.st.snapshot();
  const Buffer exchange = encode_exchange_reply({0b101, 42, true});
  every_truncation_is_bad_request(exchange, decode_exchange_reply);
  const auto x = decode_exchange_reply(exchange);
  ASSERT_TRUE(x.is_ok());
  EXPECT_EQ(x->mourned, 0b101u);
  EXPECT_EQ(x->seqno, 42u);
  EXPECT_TRUE(x->continuously_up);

  const Buffer fetch = encode_fetch_state_reply({7, 8, 6, snap});
  every_truncation_is_bad_request(fetch, decode_fetch_state_reply);
  const auto fs = decode_fetch_state_reply(fetch);
  ASSERT_TRUE(fs.is_ok());
  EXPECT_EQ(fs->seqno, 7u);
  EXPECT_EQ(fs->applied, 8u);
  EXPECT_EQ(fs->commit_seqno, 6u);
  EXPECT_EQ(fs->snapshot, snap);

  // resync answers with a snapshot; push_state with one or, when the
  // receiver is not ahead, an empty one.
  for (const Buffer& s : {snap, Buffer{}}) {
    const Buffer peer = encode_peer_state({9, s});
    every_truncation_is_bad_request(peer, decode_peer_state);
    const auto ps = decode_peer_state(peer);
    ASSERT_TRUE(ps.is_ok());
    EXPECT_EQ(ps->seqno, 9u);
    EXPECT_EQ(ps->snapshot, s);
  }
}

TEST(ProtoFuzz, AdminAndPeerErrorsAndTransportFailuresPassThrough) {
  const Buffer refused = rpc::reply_error(Errc::refused);
  EXPECT_EQ(decode_exchange_reply(refused).code(), Errc::refused);
  EXPECT_EQ(decode_fetch_state_reply(refused).code(), Errc::refused);
  EXPECT_EQ(decode_peer_state(refused).code(), Errc::refused);
  const Result<Buffer> lost = Status::error(Errc::timeout, "rpc timeout");
  EXPECT_EQ(decode_exchange_reply(lost).code(), Errc::timeout);
  EXPECT_EQ(decode_fetch_state_reply(lost).code(), Errc::timeout);
  EXPECT_EQ(decode_peer_state(lost).code(), Errc::timeout);
}

TEST(ProtoFuzz, TruncatedDirectoryThrowsDecodeError) {
  Directory d;
  d.columns = {"owner", "group"};
  d.seqno = 7;
  d.rows.push_back({"a", {some_cap(1), some_cap(2)}});
  d.rows.push_back({"bb", {some_cap(3), some_cap(4)}});
  Buffer full = d.serialize();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Buffer cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)Directory::deserialize(cut), DecodeError) << len;
  }
}

TEST(ProtoFuzz, TruncatedSnapshotThrowsDecodeError) {
  Fixture f;
  Buffer full = f.st.snapshot();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Buffer cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)DirState::from_snapshot(cut, kPort), DecodeError)
        << len;
  }
}

// ----------------------------------------------------------- corruption

TEST(ProtoFuzz, CorruptedRequestsNeverCrash) {
  Prng rng(20260805);
  Fixture proto;
  const std::vector<Buffer> reqs = all_requests(proto);
  for (int trial = 0; trial < 400; ++trial) {
    Buffer req = reqs[rng.below(reqs.size())];
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips && !req.empty(); ++i) {
      req[rng.below(req.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    must_reject_cleanly(req);
  }
}

TEST(ProtoFuzz, RandomGarbageNeverCrashes) {
  Prng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    Buffer junk(rng.below(96));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    must_reject_cleanly(junk);
    // The state codecs throw rather than reply; both rejections are fine,
    // silent acceptance of garbage is not required to be impossible (a
    // random buffer can spell a valid encoding) but must not crash.
    try {
      (void)Directory::deserialize(junk);
    } catch (const DecodeError&) {
    }
    try {
      (void)DirState::from_snapshot(junk, kPort);
    } catch (const DecodeError&) {
    }
  }
}

TEST(ProtoFuzz, CorruptedSnapshotsNeverCrash) {
  Prng rng(7);
  Fixture f;
  const Buffer clean = f.st.snapshot();
  for (int trial = 0; trial < 400; ++trial) {
    Buffer snap = clean;
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      snap[rng.below(snap.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    try {
      DirState st = DirState::from_snapshot(snap, kPort);
      (void)st.snapshot();  // whatever decoded must re-encode
    } catch (const DecodeError&) {
    }
  }
}

TEST(ProtoFuzz, EmptyAndUnknownOpsAreBadRequests) {
  Fixture f;
  EXPECT_FALSE(peek_op({}).is_ok());
  for (std::uint8_t op : {std::uint8_t{0}, std::uint8_t{9},
                          std::uint8_t{200}, std::uint8_t{255}}) {
    Writer w;
    w.u8(op);
    EXPECT_FALSE(peek_op(w.view()).is_ok()) << int(op);
    DirState::ApplyEffect eff;
    Buffer reply = f.st.apply(w.view(), 0, 1, &eff);
    EXPECT_EQ(rpc::reply_status(reply).code(), Errc::bad_request) << int(op);
    EXPECT_FALSE(eff.any_change);
  }
}

}  // namespace
}  // namespace amoeba::dir
