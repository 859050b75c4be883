// Golden digests of the simulated Table 2 corpus: for every study, the
// 64-bit FNV-1a of the write_trace bytes of its experiments in order, at
// seed offsets 0 and 1. The values come from the simulator drawing from
// std::mt19937_64 and the writer formatting through an ostream at
// precision 17; any change to a random stream, to the counter model or to
// the number format moves them.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "sim/studies.hpp"
#include "store/serialize.hpp"
#include "trace/trace_io.hpp"

namespace perftrack::sim {
namespace {

struct Golden {
  const char* study;
  std::uint64_t digest;
};

std::uint64_t study_digest(const Study& study) {
  std::uint64_t hash = store::fnv1a64({});  // the offset basis
  for (const auto& trace : study.traces) {
    std::ostringstream out;
    trace::write_trace(out, *trace);
    hash = store::fnv1a64(out.str(), hash);
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[19] = {};
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void expect_digests(std::uint64_t seed_offset,
                    const std::vector<Golden>& golden) {
  const std::vector<Study> studies = all_studies({.seed_offset = seed_offset});
  ASSERT_EQ(studies.size(), golden.size());
  for (std::size_t i = 0; i < studies.size(); ++i) {
    SCOPED_TRACE(studies[i].name);
    EXPECT_EQ(studies[i].name, golden[i].study);
    EXPECT_EQ(hex(study_digest(studies[i])), hex(golden[i].digest));
  }
}

TEST(StudyTraceDigestTest, SeedOffset0) {
  expect_digests(0, {
                        {"Gadget", 0x5bb8fefefecfb5acull},
                        {"QuantumESPRESSO", 0x518b979bb7789664ull},
                        {"WRF", 0x034c0cc017f0e8aeull},
                        {"Gromacs", 0xce8cef220acf0dbcull},
                        {"CGPOP", 0x41e88c898d123f71ull},
                        {"NAS BT", 0x67ecc292a9622416ull},
                        {"HydroC", 0xea1d1ace7e55562full},
                        {"MR-Genesis", 0x9baa8ed65738c5cdull},
                        {"NAS FT", 0xea66ce750395e258ull},
                        {"Gromacs (evolution)", 0x9f0b89c07b987955ull},
                    });
}

TEST(StudyTraceDigestTest, SeedOffset1) {
  expect_digests(1, {
                        {"Gadget", 0xc8ec0acf417daeefull},
                        {"QuantumESPRESSO", 0xd6230026a924459full},
                        {"WRF", 0x6d9234bb638aa168ull},
                        {"Gromacs", 0xf1d7815d0cb8a810ull},
                        {"CGPOP", 0x73f4e98b0000f022ull},
                        {"NAS BT", 0xa6ca8d2ab93f1178ull},
                        {"HydroC", 0x06ab6ec5dd50c17aull},
                        {"MR-Genesis", 0x55646c34a36bbd61ull},
                        {"NAS FT", 0xd38af53e61daab70ull},
                        {"Gromacs (evolution)", 0x666ae6ef64f52b30ull},
                    });
}

}  // namespace
}  // namespace perftrack::sim
