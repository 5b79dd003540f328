#include <gtest/gtest.h>

#include "common/buffer.h"
#include "common/log.h"
#include "common/rand.h"
#include "common/status.h"

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

}  // namespace
}  // namespace amoeba
