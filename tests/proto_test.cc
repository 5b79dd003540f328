// Unit and property tests of the directory data model, wire protocol and
// the shared DirState state machine (the deterministic core every server
// implementation replays).
#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "common/rand.h"
#include "common/strings.h"
#include "dir/proto.h"
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

// ------------------------------------------------------------- model types

TEST(DirectoryModel, FindRow) {
  Directory d;
  d.rows.push_back({"a", {some_cap(1)}});
  d.rows.push_back({"b", {some_cap(2)}});
  ASSERT_NE(d.find("a"), nullptr);
  EXPECT_EQ(d.find("a")->cols[0].object, 1u);
  EXPECT_EQ(d.find("zzz"), nullptr);
  EXPECT_TRUE(d.has("b"));
  EXPECT_FALSE(d.has("c"));
}

TEST(DirectoryModel, SerializeRoundTrip) {
  Directory d;
  d.columns = {"owner", "group", "other"};
  d.seqno = 42;
  for (int i = 0; i < 5; ++i) {
    d.rows.push_back({numbered("row", i),
                      {some_cap(static_cast<std::uint32_t>(i)),
                       some_cap(static_cast<std::uint32_t>(i + 100))}});
  }
  Directory out = Directory::deserialize(d.serialize());
  EXPECT_EQ(out.columns, d.columns);
  EXPECT_EQ(out.seqno, 42u);
  ASSERT_EQ(out.rows.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.rows[i].name, d.rows[i].name);
    EXPECT_EQ(out.rows[i].cols, d.rows[i].cols);
  }
}

TEST(DirectoryModel, EmptyDirectoryRoundTrip) {
  Directory d;
  Directory out = Directory::deserialize(d.serialize());
  EXPECT_TRUE(out.rows.empty());
  EXPECT_TRUE(out.columns.empty());
  EXPECT_EQ(out.seqno, 0u);
}

TEST(CommitBlockModel, BitsAndRoundTrip) {
  CommitBlock cb;
  cb.set_up(0, true);
  cb.set_up(2, true);
  cb.seqno = 99;
  cb.recovering = true;
  EXPECT_TRUE(cb.up(0));
  EXPECT_FALSE(cb.up(1));
  EXPECT_TRUE(cb.up(2));
  CommitBlock out = CommitBlock::deserialize(cb.serialize());
  EXPECT_EQ(out.config, cb.config);
  EXPECT_EQ(out.seqno, 99u);
  EXPECT_TRUE(out.recovering);
  out.set_up(2, false);
  EXPECT_FALSE(out.up(2));
}

TEST(ObjectEntryModel, RoundTrip) {
  ObjectEntry e;
  e.in_use = true;
  e.secret = 0x1234;
  e.seqno = 7;
  e.bullet = some_cap(9);
  Writer w;
  e.encode(w);
  Buffer b = w.take();
  Reader r(b);
  ObjectEntry out = ObjectEntry::decode(r);
  EXPECT_TRUE(out.in_use);
  EXPECT_EQ(out.secret, 0x1234u);
  EXPECT_EQ(out.seqno, 7u);
  EXPECT_EQ(out.bullet, e.bullet);
}

// ------------------------------------------------------------ wire protocol

TEST(WireProtocol, PeekOpClassification) {
  EXPECT_EQ(*peek_op(make_create_dir({"c"})), DirOp::create_dir);
  EXPECT_EQ(*peek_op(make_list_dir(some_cap(1))), DirOp::list_dir);
  EXPECT_EQ(*peek_op(make_lookup_set({{some_cap(1), "x"}})),
            DirOp::lookup_set);
  EXPECT_FALSE(peek_op(Buffer{}).is_ok());
  EXPECT_FALSE(peek_op(Buffer{0xee}).is_ok());
  EXPECT_TRUE(is_read_op(DirOp::list_dir));
  EXPECT_TRUE(is_read_op(DirOp::lookup_set));
  EXPECT_FALSE(is_read_op(DirOp::append_row));
  EXPECT_FALSE(is_read_op(DirOp::replace_set));
}

TEST(WireProtocol, ReplyHelpers) {
  EXPECT_TRUE(rpc::reply_status(rpc::reply_ok()).is_ok());
  EXPECT_EQ(rpc::reply_status(rpc::reply_error(Errc::no_majority)).code(),
            Errc::no_majority);
  EXPECT_FALSE(rpc::reply_status(Buffer{}).is_ok());
  // A status byte naming no Errc is a malformed reply, not a status.
  EXPECT_EQ(rpc::reply_status(Buffer{0xee}).code(), Errc::bad_request);
}

// --------------------------------------------------------------- DirState

struct StateFixture : ::testing::Test {
  DirState st{kPort};
  std::uint64_t seq = 0;

  cap::Capability create(const std::vector<std::string>& cols = {"c"}) {
    DirState::ApplyEffect e;
    const std::uint64_t secret = mix64(seq + 1);
    seq += 2;
    Buffer reply = st.apply(make_create_dir(cols), secret, seq, &e);
    Reader r(reply);
    EXPECT_EQ(static_cast<Errc>(r.u8()), Errc::ok);
    return cap::Capability::decode(r);
  }

  Status apply(const Buffer& req, DirState::ApplyEffect* eff = nullptr) {
    DirState::ApplyEffect local;
    const std::uint64_t secret = mix64(seq);
    ++seq;
    Buffer reply = st.apply(req, secret, seq, eff ? eff : &local);
    return rpc::reply_status(reply);
  }
};

TEST_F(StateFixture, CreateAllocatesLowestFreeObjnum) {
  auto a = create();
  auto b = create();
  EXPECT_EQ(a.object, 1u);
  EXPECT_EQ(b.object, 2u);
  DirState::ApplyEffect e;
  (void)st.apply(make_delete_dir(a), 0, ++seq, &e);
  auto c = create();
  EXPECT_EQ(c.object, 1u);  // deterministic reuse of the freed slot
}

TEST_F(StateFixture, ForcedObjnumForReplay) {
  DirState::ApplyEffect e;
  Buffer reply = st.apply(make_create_dir({"c"}), 1, ++seq, &e, 17);
  Reader r(reply);
  EXPECT_EQ(static_cast<Errc>(r.u8()), Errc::ok);
  EXPECT_EQ(cap::Capability::decode(r).object, 17u);
  EXPECT_NE(st.entry(17), nullptr);
}

TEST_F(StateFixture, CapabilityChecksOnEveryOp) {
  auto dcap = create();
  cap::Capability bad = dcap;
  bad.check ^= 1;
  EXPECT_EQ(apply(make_append_row(bad, "x", {})).code(),
            Errc::bad_capability);
  EXPECT_EQ(apply(make_delete_row(bad, "x")).code(), Errc::bad_capability);
  EXPECT_EQ(apply(make_delete_dir(bad)).code(), Errc::bad_capability);
  EXPECT_EQ(rpc::reply_status(st.execute_read(make_list_dir(bad))).code(),
            Errc::bad_capability);
}

TEST_F(StateFixture, RightsEnforced) {
  auto dcap = create();
  // Strip rights using the secret (as the server would).
  cap::Capability ro =
      cap::CheckScheme::restrict(dcap, cap::kRightRead, st.entry(1)->secret);
  EXPECT_TRUE(rpc::reply_status(st.execute_read(make_list_dir(ro))).is_ok());
  EXPECT_EQ(apply(make_append_row(ro, "x", {})).code(), Errc::bad_capability);
  EXPECT_EQ(apply(make_delete_dir(ro)).code(), Errc::bad_capability);
  // chmod requires admin rights.
  cap::Capability rw = cap::CheckScheme::restrict(
      dcap, cap::kRightRead | cap::kRightWrite, st.entry(1)->secret);
  EXPECT_TRUE(apply(make_append_row(rw, "x", {some_cap(1)})).is_ok());
  EXPECT_EQ(apply(make_chmod_row(rw, "x", 0, 0x1)).code(),
            Errc::bad_capability);
  EXPECT_TRUE(apply(make_chmod_row(dcap, "x", 0, 0x1)).is_ok());
}

TEST_F(StateFixture, SeqnoTracksLastChange) {
  auto dcap = create();
  const std::uint64_t after_create = st.entry(dcap.object)->seqno;
  (void)apply(make_append_row(dcap, "x", {}));
  EXPECT_GT(st.entry(dcap.object)->seqno, after_create);
  EXPECT_EQ(st.max_dir_seqno(), st.entry(dcap.object)->seqno);
}

TEST_F(StateFixture, AppendDuplicateRefused) {
  auto dcap = create();
  EXPECT_TRUE(apply(make_append_row(dcap, "x", {})).is_ok());
  EXPECT_EQ(apply(make_append_row(dcap, "x", {})).code(), Errc::exists);
}

TEST_F(StateFixture, DeleteRowMissingRefused) {
  auto dcap = create();
  EXPECT_EQ(apply(make_delete_row(dcap, "ghost")).code(), Errc::not_found);
}

TEST_F(StateFixture, ReplaceSetAllOrNothing) {
  auto d1 = create();
  auto d2 = create();
  (void)apply(make_append_row(d1, "x", {some_cap(1)}));
  (void)apply(make_append_row(d2, "y", {some_cap(2)}));
  // Second target missing: nothing changes.
  Status st1 = apply(make_replace_set(
      {{d1, "x", some_cap(9)}, {d2, "ghost", some_cap(9)}}));
  EXPECT_EQ(st1.code(), Errc::conflict);
  EXPECT_EQ(st.directory(d1.object)->find("x")->cols[0].object, 1u);
  // Both present: both replaced atomically.
  EXPECT_TRUE(apply(make_replace_set(
                        {{d1, "x", some_cap(9)}, {d2, "y", some_cap(9)}}))
                  .is_ok());
  EXPECT_EQ(st.directory(d1.object)->find("x")->cols[0].object, 9u);
  EXPECT_EQ(st.directory(d2.object)->find("y")->cols[0].object, 9u);
}

TEST_F(StateFixture, ChmodRehashesOwnServiceCaps) {
  auto parent = create();
  auto child = create();  // a directory stored inside another
  (void)apply(make_append_row(parent, "sub", {child}));
  (void)apply(make_chmod_row(parent, "sub", 0, cap::kRightRead));
  const cap::Capability& stored =
      st.directory(parent.object)->find("sub")->cols[0];
  EXPECT_EQ(stored.rights, cap::kRightRead);
  // The restricted capability still verifies against the child's secret.
  EXPECT_TRUE(
      cap::CheckScheme::verify(stored, st.entry(child.object)->secret));
}

TEST_F(StateFixture, ReadsRejectedByApply) {
  DirState::ApplyEffect e;
  Buffer reply = st.apply(make_list_dir(some_cap(1)), 0, ++seq, &e);
  EXPECT_EQ(rpc::reply_status(reply).code(), Errc::bad_request);
  EXPECT_FALSE(e.any_change);
}

TEST_F(StateFixture, MalformedRequestsAreErrorsNotCrashes) {
  DirState::ApplyEffect e;
  Buffer junk{0x01, 0xff};  // create_dir with truncated body
  EXPECT_EQ(rpc::reply_status(st.apply(junk, 0, ++seq, &e)).code(),
            Errc::bad_request);
  EXPECT_EQ(rpc::reply_status(st.execute_read(Buffer{0x03})).code(),
            Errc::bad_request);
}

TEST_F(StateFixture, SnapshotRoundTripPreservesEverything) {
  auto d1 = create({"a", "b"});
  auto d2 = create();
  (void)apply(make_append_row(d1, "x", {some_cap(3), some_cap(4)}));
  (void)apply(make_append_row(d2, "y", {}));
  DirState clone = DirState::from_snapshot(st.snapshot(), kPort);
  ASSERT_EQ(clone.table().size(), 2u);
  EXPECT_EQ(clone.entry(d1.object)->secret, st.entry(d1.object)->secret);
  EXPECT_EQ(clone.directory(d1.object)->find("x")->cols.size(), 2u);
  EXPECT_EQ(clone.directory(d2.object)->rows.size(), 1u);
  // Reads against the clone behave identically.
  EXPECT_TRUE(rpc::reply_status(clone.execute_read(make_list_dir(d1))).is_ok());
}

TEST_F(StateFixture, EffectReportsTouchedAndDeleted) {
  auto dcap = create();
  DirState::ApplyEffect e1;
  (void)apply(make_append_row(dcap, "x", {}), &e1);
  EXPECT_EQ(e1.touched, std::vector<std::uint32_t>{dcap.object});
  EXPECT_TRUE(e1.any_change);
  DirState::ApplyEffect e2;
  (void)apply(make_delete_dir(dcap), &e2);
  EXPECT_EQ(e2.deleted, std::vector<std::uint32_t>{dcap.object});
}

TEST_F(StateFixture, ObjectTableCapacityEnforced) {
  for (std::uint32_t i = 1; i < kMaxObjects; ++i) {
    DirState::ApplyEffect e;
    Buffer reply = st.apply(make_create_dir({"c"}), 1, ++seq, &e);
    ASSERT_TRUE(rpc::reply_status(reply).is_ok()) << "at " << i;
  }
  DirState::ApplyEffect e;
  EXPECT_EQ(rpc::reply_status(st.apply(make_create_dir({"c"}), 1, ++seq, &e))
                .code(),
            Errc::full);
}

// --------------------------------------------- determinism property sweep

struct ReplayParams {
  std::uint64_t seed;
  int ops;
  // gtest names a test by its parameter's object bytes: filling what would
  // be padding keeps the name the same in every build.
  char zero[4] = {};
};
static_assert(std::has_unique_object_representations_v<ReplayParams>);

class ReplayDeterminism : public ::testing::TestWithParam<ReplayParams> {};

/// Property: applying the same request stream (same secrets, same seqnos)
/// to two fresh DirStates yields byte-identical snapshots and replies —
/// the invariant active replication rests on.
TEST_P(ReplayDeterminism, IdenticalReplicasFromIdenticalStreams) {
  const auto p = GetParam();
  Prng rng(p.seed);
  DirState a(kPort), b(kPort);
  std::vector<cap::Capability> dirs;

  for (int i = 0; i < p.ops; ++i) {
    Buffer req;
    const std::uint64_t secret = rng.next();
    switch (dirs.empty() ? 0 : rng.below(6)) {
      case 0:
        req = make_create_dir({"c"});
        break;
      case 1:
        req = make_append_row(dirs[rng.below(dirs.size())],
                              numbered("n", rng.below(8)),
                              {some_cap(static_cast<std::uint32_t>(i))});
        break;
      case 2:
        req = make_delete_row(dirs[rng.below(dirs.size())],
                              numbered("n", rng.below(8)));
        break;
      case 3:
        req = make_chmod_row(dirs[rng.below(dirs.size())],
                             numbered("n", rng.below(8)), 0,
                             static_cast<cap::Rights>(rng.below(256)));
        break;
      case 4:
        req = make_replace_set({{dirs[rng.below(dirs.size())],
                                 numbered("n", rng.below(8)),
                                 some_cap(static_cast<std::uint32_t>(i))}});
        break;
      case 5:
        req = make_delete_dir(dirs[rng.below(dirs.size())]);
        break;
    }
    const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
    DirState::ApplyEffect ea, eb;
    Buffer ra = a.apply(req, secret, seq, &ea);
    Buffer rb = b.apply(req, secret, seq, &eb);
    ASSERT_EQ(ra, rb) << "replies diverged at op " << i;
    ASSERT_EQ(ea.touched, eb.touched);
    ASSERT_EQ(ea.deleted, eb.deleted);
    // Track created dirs so later ops hit real objects.
    if (rpc::reply_status(ra).is_ok() && !ra.empty() &&
        peek_op(req).is_ok() && *peek_op(req) == DirOp::create_dir) {
      Reader r(ra);
      (void)r.u8();
      dirs.push_back(cap::Capability::decode(r));
    }
    if (peek_op(req).is_ok() && *peek_op(req) == DirOp::delete_dir &&
        rpc::reply_status(ra).is_ok()) {
      std::erase_if(dirs, [&](const cap::Capability& c) {
        return !ea.deleted.empty() && c.object == ea.deleted.front();
      });
    }
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplayDeterminism,
                         ::testing::Values(ReplayParams{1, 50},
                                           ReplayParams{2, 100},
                                           ReplayParams{3, 200},
                                           ReplayParams{4, 400},
                                           ReplayParams{5, 100},
                                           ReplayParams{6, 300}));

}  // namespace
}  // namespace amoeba::dir
