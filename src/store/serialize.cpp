#include "store/serialize.hpp"

namespace perftrack::store {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void BinWriter::u32(std::uint32_t v) {
  for (int b = 0; b < 4; ++b)
    out_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

void BinWriter::u64(std::uint64_t v) {
  for (int b = 0; b < 8; ++b)
    out_.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

void BinWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

const char* BinReader::need(std::size_t n) {
  if (bytes_.size() - pos_ < n)
    throw ParseError("frame store entry truncated: need " + std::to_string(n) +
                     " bytes, " + std::to_string(bytes_.size() - pos_) +
                     " left");
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t BinReader::u8() {
  return static_cast<std::uint8_t>(*need(1));
}

std::uint32_t BinReader::u32() {
  const char* p = need(4);
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[b])) << (8 * b);
  return v;
}

std::uint64_t BinReader::u64() {
  const char* p = need(8);
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[b])) << (8 * b);
  return v;
}

double BinReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::size_t BinReader::length(std::size_t element_size) {
  std::uint32_t n = u32();
  if (element_size > 0 && remaining() / element_size < n)
    throw ParseError("frame store entry corrupt: sequence of " +
                     std::to_string(n) + " elements does not fit in " +
                     std::to_string(remaining()) + " remaining bytes");
  return n;
}

std::string BinReader::str() {
  std::size_t n = length(1);
  const char* p = need(n);
  return std::string(p, n);
}

}  // namespace perftrack::store
