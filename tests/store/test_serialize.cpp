#include "store/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"

namespace perftrack::store {
namespace {

TEST(SerializeTest, PrimitivesRoundTrip) {
  BinWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.f64(3.14159);
  w.str("hello \0 world");  // embedded NUL is cut by the literal, fine
  std::string bytes = w.take();

  BinReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello ");
  EXPECT_TRUE(r.done());
}

TEST(SerializeTest, DoublesAreBitExact) {
  // The session equivalence guarantee rests on doubles surviving
  // save/load byte-for-byte, including the values formatting would mangle.
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::infinity(),
                           std::nextafter(1.0, 2.0)};
  BinWriter w;
  for (double v : values) w.f64(v);
  std::string bytes = w.take();
  BinReader r(bytes);
  for (double v : values) {
    double back = r.f64();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0);
  }
  // NaN keeps its exact payload bits too.
  double nan = std::numeric_limits<double>::quiet_NaN();
  BinWriter wn;
  wn.f64(nan);
  std::string nb = wn.take();
  BinReader rn(nb);
  double back = rn.f64();
  EXPECT_EQ(std::memcmp(&back, &nan, sizeof nan), 0);
}

TEST(SerializeTest, TruncationIsParseErrorEverywhere) {
  BinWriter w;
  w.u32(7);
  w.f64(1.5);
  w.str("abcdef");
  std::string bytes = w.take();

  // Every proper prefix must fail cleanly, never read out of bounds.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinReader r(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW(
        {
          r.u32();
          r.f64();
          r.str();
        },
        ParseError)
        << "prefix length " << cut;
  }
}

TEST(SerializeTest, ImpossibleLengthPrefixRejectedBeforeAllocation) {
  // A 4-byte buffer claiming 2^32-1 doubles must be rejected by the
  // length check, not by a giant allocation.
  BinWriter w;
  w.u32(0xffffffffu);
  std::string bytes = w.take();
  BinReader r(bytes);
  EXPECT_THROW(r.length(8), ParseError);
}

TEST(SerializeTest, Fnv1a64MatchesReferenceAndBasisSeparatesStreams) {
  // Reference vectors for 64-bit FNV-1a with the standard offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  // A different basis yields an independent stream over the same bytes —
  // the two halves of the 128-bit cache key.
  EXPECT_NE(fnv1a64("foobar", 0x6c62272e07bb0142ull), fnv1a64("foobar"));
}

}  // namespace
}  // namespace perftrack::store
