#include "trace/counters.hpp"

#include "common/error.hpp"

namespace perftrack::trace {

std::string_view counter_name(Counter c) {
  switch (c) {
    case Counter::Instructions: return "INSTR";
    case Counter::Cycles: return "CYC";
    case Counter::L1DMisses: return "L1DM";
    case Counter::L2Misses: return "L2M";
    case Counter::TlbMisses: return "TLBM";
  }
  throw PreconditionError("invalid counter enum value");
}

}  // namespace perftrack::trace
