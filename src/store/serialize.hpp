#pragma once
// Binary serialisation primitives for perftrackd's journal.
//
// A deliberately tiny, dependency-free encoding layer: little-endian
// fixed-width integers, IEEE-754 doubles copied byte-for-byte (so a
// save/load round trip is bit-exact), and length-prefixed strings.
// BinReader is the adversarial half: every read is bounds-checked
// and every length prefix is validated against the bytes actually left, so
// a truncated or corrupted journal record surfaces as ParseError — never
// as out-of-bounds access or a multi-gigabyte allocation (fuzzed by
// tests/fuzz/fuzz_journal.cpp).

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace perftrack::store {

/// 64-bit FNV-1a over arbitrary bytes; `basis` seeds the hash so two
/// independent streams can be derived from the same input.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t basis = 0xcbf29ce484222325ull);

class BinWriter {
public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);
  void str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

private:
  std::string out_;
};

class BinReader {
public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  /// Length prefix for a sequence whose elements occupy at least
  /// `element_size` bytes each; rejects prefixes the remaining bytes cannot
  /// possibly satisfy before any allocation happens.
  std::size_t length(std::size_t element_size);

private:
  const char* need(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace perftrack::store
