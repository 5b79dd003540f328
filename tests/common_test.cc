#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "cap/capability.h"
#include "common/buffer.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/pool.h"
#include "common/rand.h"
#include "common/status.h"
#include "dir/types.h"

namespace amoeba {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::ok);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::error(Errc::no_majority, "only 1 of 3 up");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::no_majority);
  EXPECT_EQ(s.to_string(), "no_majority: only 1 of 3 up");
}

TEST(StatusTest, EveryErrcHasAName) {
  for (int c = 0; c <= static_cast<int>(Errc::internal); ++c) {
    EXPECT_NE(errc_name(static_cast<Errc>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status().code(), Errc::ok);
}

TEST(ResultTest, HoldsError) {
  Result<int> r{Status::error(Errc::timeout, "t")};
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r{std::string("payload")};
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(BufferTest, RoundTripScalars) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-12345);
  w.boolean(true);
  Buffer b = w.take();

  Reader r(b);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(BufferTest, RoundTripStringsAndBytes) {
  Writer w;
  w.str("hello");
  w.str("");
  w.bytes(Buffer{0x00, 0x01, 0x02});
  Buffer b = w.take();

  Reader r(b);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.bytes().size(), 3u);
  EXPECT_TRUE(r.done());
}

TEST(BufferTest, TruncatedThrows) {
  Writer w;
  w.u64(7);
  Buffer b = w.take();
  b.resize(4);
  Reader r(b);
  EXPECT_THROW(r.u64(), DecodeError);
}

TEST(BufferTest, TruncatedStringThrows) {
  Writer w;
  w.str("abcdef");
  Buffer b = w.take();
  b.resize(6);  // length prefix says 6 bytes, only 2 present
  Reader r(b);
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(BufferTest, CountMustFitTheRemainingBytes) {
  // Three 4-byte elements follow the count: a count of 3 fits exactly, and
  // one more than the message can hold is refused before any allocation.
  for (std::uint32_t declared : {3u, 4u, 0xffffffffu}) {
    Writer w;
    w.u32(declared);
    for (int i = 0; i < 3; ++i) w.u32(0);
    Buffer b = w.take();
    Reader r(b);
    if (declared == 3) {
      EXPECT_EQ(r.count<std::uint32_t>(4), 3u);
    } else {
      EXPECT_THROW(r.count<std::uint32_t>(4), DecodeError) << declared;
    }
  }
}

TEST(BufferTest, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Buffer b = w.take();
  Reader r(b);
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(BufferTest, RestConsumesRemainder) {
  Writer w;
  w.u8(9);
  w.raw(to_buffer("tail"));
  Buffer b = w.take();
  Reader r(b);
  r.u8();
  EXPECT_EQ(to_string(r.rest()), "tail");
  EXPECT_TRUE(r.done());
}

TEST(BufferTest, ViewReadsInPlaceAndReaderTakesSubranges) {
  Writer w;
  w.str("outer");
  w.u32(7);
  const Buffer b = w.take();
  Reader r(b);
  const ByteSpan v = r.view();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.data(), b.data() + 4);  // a view into the input, not a copy
  EXPECT_EQ(r.u32(), 7u);
  // A Reader over a subrange stops at the subrange's end.
  Reader sub(ByteSpan(b).subspan(4, 2));
  EXPECT_EQ(sub.u16(), 0x756fu);  // "ou"
  EXPECT_THROW(sub.u8(), DecodeError);
  // view() checks its length prefix like bytes() does.
  Reader bad(ByteSpan(b).first(6));
  EXPECT_THROW((void)bad.view(), DecodeError);
}

// Golden wire bytes, spelled out: the encoder's byte order and widths are
// the on-disk and on-wire format, so they must never drift.
TEST(BufferTest, WriterGoldenBytesForEveryWidth) {
  using Bytes = std::vector<std::uint8_t>;
  auto bytes_of = [](auto put) {
    Writer w;
    put(w);
    const Buffer b = w.take();
    return Bytes(b.begin(), b.end());
  };
  constexpr auto kMin64 = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax64 = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(bytes_of([](Writer& w) { w.u8(0); }), Bytes({0x00}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u8(0x7f); }), Bytes({0x7f}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u8(0x80); }), Bytes({0x80}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u8(0xff); }), Bytes({0xff}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.boolean(false); }), Bytes({0x00}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.boolean(true); }), Bytes({0x01}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u16(0); }), Bytes({0x00, 0x00}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u16(0x7fff); }), Bytes({0xff, 0x7f}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u16(0x8000); }), Bytes({0x00, 0x80}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u16(0xffff); }), Bytes({0xff, 0xff}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u16(0x1234); }), Bytes({0x34, 0x12}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u32(0); }), Bytes({0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u32(0x7fffffff); }),
            Bytes({0xff, 0xff, 0xff, 0x7f}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u32(0x80000000); }),
            Bytes({0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u32(0xffffffff); }),
            Bytes({0xff, 0xff, 0xff, 0xff}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u32(0x12345678); }),
            Bytes({0x78, 0x56, 0x34, 0x12}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u64(0); }), Bytes(8, 0x00));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u64(0x7fffffffffffffffULL); }),
            Bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u64(0x8000000000000000ULL); }),
            Bytes({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u64(~0ULL); }), Bytes(8, 0xff));
  EXPECT_EQ(bytes_of([](Writer& w) { w.u64(0x0123456789abcdefULL); }),
            Bytes({0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.i64(0); }), Bytes(8, 0x00));
  EXPECT_EQ(bytes_of([](Writer& w) { w.i64(-1); }), Bytes(8, 0xff));
  EXPECT_EQ(bytes_of([](Writer& w) { w.i64(-2); }),
            Bytes({0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  EXPECT_EQ(bytes_of([&](Writer& w) { w.i64(kMin64); }),
            Bytes({0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(bytes_of([&](Writer& w) { w.i64(kMax64); }),
            Bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.str(""); }), Bytes({0, 0, 0, 0}));
  EXPECT_EQ(bytes_of([](Writer& w) { w.str("ab"); }),
            Bytes({0x02, 0x00, 0x00, 0x00, 'a', 'b'}));
  // Appending after an odd-sized prefix: each integer lands right after it.
  EXPECT_EQ(bytes_of([](Writer& w) {
              w.u8(0xaa);
              w.u16(0x0102);
              w.u32(0x03040506);
              w.u64(0x0708090a0b0c0d0eULL);
              w.u8(0xbb);
            }),
            Bytes({0xaa, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0e, 0x0d,
                   0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07, 0xbb}));
}

TEST(BufferTest, CapabilityAndDirectoryGoldenBytes) {
  using Bytes = std::vector<std::uint8_t>;
  cap::Capability c1;
  c1.port = net::Port{0x0000f11e00c0ffeeULL};
  c1.object = 0x00abcdef;
  c1.rights = cap::kRightsAll;
  c1.check = 0x0000123456789abcULL;
  cap::Capability c2;
  c2.port = net::Port{1};
  c2.rights = cap::kRightRead;
  cap::Capability c3;
  c3.port = net::Port{~0ULL};
  c3.object = 0xffffffff;
  c3.rights = 0x80;
  c3.check = cap::CheckScheme::kCheckMask;

  Writer cw;
  c1.encode(cw);
  const Buffer cb = cw.take();
  EXPECT_EQ(Bytes(cb.begin(), cb.end()),
            Bytes({0xee, 0xff, 0xc0, 0x00, 0x1e, 0xf1, 0x00, 0x00, 0xef, 0xcd,
                   0xab, 0x00, 0xff, 0xbc, 0x9a, 0x78, 0x56, 0x34, 0x12, 0x00,
                   0x00}));
  EXPECT_EQ(cb.size(), cap::Capability::kEncodedSize);

  dir::Directory d;
  d.columns = {"name", "owner"};
  d.rows = {{"alpha", {c1, c2}}, {"", {c3}}, {"zeta-row", {}}};
  d.seqno = 0x8000000000000001ULL;
  const Buffer db = d.serialize();
  EXPECT_EQ(
      Bytes(db.begin(), db.end()),
      Bytes({0x02, 0x00, 0x04, 0x00, 0x00, 0x00, 0x6e, 0x61, 0x6d, 0x65,
             0x05, 0x00, 0x00, 0x00, 0x6f, 0x77, 0x6e, 0x65, 0x72, 0x03,
             0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x61, 0x6c, 0x70,
             0x68, 0x61, 0x02, 0x00, 0xee, 0xff, 0xc0, 0x00, 0x1e, 0xf1,
             0x00, 0x00, 0xef, 0xcd, 0xab, 0x00, 0xff, 0xbc, 0x9a, 0x78,
             0x56, 0x34, 0x12, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
             0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
             0xff, 0xff, 0xff, 0xff, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff,
             0xff, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x7a, 0x65, 0x74,
             0x61, 0x2d, 0x72, 0x6f, 0x77, 0x00, 0x00, 0x01, 0x00, 0x00,
             0x00, 0x00, 0x00, 0x00, 0x80}));
  const dir::Directory back = dir::Directory::deserialize(db);
  EXPECT_EQ(back.rows.size(), 3u);
  EXPECT_EQ(back.rows[0].cols[0], c1);
  EXPECT_EQ(back.seqno, d.seqno);
}

TEST(PoolTest, EverySizeMapsToTheSmallestClassThatFitsIt) {
  // 4096 used to map one past the last class, onto the thread_local that
  // follows the freelist heads (see EngineRegression in
  // engine_stress_test.cc for the crash it caused).
  using namespace pool_detail;
  for (std::size_t n = 0; n <= kMaxClass; ++n) {
    const std::size_t idx = class_index(n);
    ASSERT_LT(idx, kNumClasses) << n;
    EXPECT_GE(class_size(idx), n) << n;
    if (idx > 0) {
      EXPECT_LT(class_size(idx - 1), n) << n;
    }
  }
  void* p = allocate(kMaxClass);
  deallocate(p, kMaxClass);
  void* q = allocate(kMaxClass);
#if !AMOEBA_POOL_PASSTHROUGH
  EXPECT_EQ(q, p);  // recycled through its own class
#endif
  deallocate(q, kMaxClass);
}

TEST(PrngTest, DeterministicForSeed) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(PrngTest, BelowInRange) {
  Prng p(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(p.below(17), 17u);
  EXPECT_EQ(p.below(0), 0u);
}

TEST(PrngTest, RangeInclusive) {
  Prng p(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = p.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PrngTest, UniformInUnitInterval) {
  Prng p(11);
  for (int i = 0; i < 1000; ++i) {
    double u = p.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(LogTest, SinkReceivesMessagesAtOrAboveLevel) {
  std::vector<std::string> lines;
  log::set_sink([&](log::Level, const std::string& s) { lines.push_back(s); });
  log::set_level(log::Level::info);
  LOG_DEBUG << "hidden";
  LOG_INFO << "visible " << 42;
  log::set_level(log::Level::warn);
  log::set_sink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("visible 42"), std::string::npos);
}

TEST(ParseTest, WholeNumbersAndRangesOnly) {
  using Range = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_range("7"), Range(7, 7));
  EXPECT_EQ(parse_range("1..50"), Range(1, 50));
  EXPECT_EQ(parse_range("3..3"), Range(3, 3));
  for (const char* bad :
       {"", "abc", "5x", "-1", "+1", " 1", "1 ", "18446744073709551616",
        "99999999999999999999999"}) {
    EXPECT_EQ(parse_u64(bad), std::nullopt) << "'" << bad << "'";
    EXPECT_EQ(parse_range(bad), std::nullopt) << "'" << bad << "'";
  }
  for (const char* bad : {"1..5x", "5..1", "..", "..5", "1..", "1...5",
                          "x..5", "1..18446744073709551616"}) {
    EXPECT_EQ(parse_range(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(HashTest, Fnv1aMatchesTheReferenceVectors) {
  EXPECT_EQ(fnv1a(kFnvOffset, "", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kFnvOffset, "a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(kFnvOffset, "foobar", 6), 0x85944171f73967e8ULL);
  // A u64 folds as its eight little-endian bytes.
  const std::uint8_t le[8] = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(fnv1a_u64(kFnvOffset, 0x0102030405060708ULL),
            fnv1a(kFnvOffset, le, sizeof(le)));
}

}  // namespace
}  // namespace amoeba
