#pragma once
// Paraver configuration (.pcf) files — the event dictionary.
//
// A Paraver trace (.prv) stores events as (type, value) integer pairs; the
// companion .pcf file maps them to labels. For burst analysis we need two
// things from it: the hardware-counter event types (PAPI codes) and the
// caller table that maps call-site values to source locations. This module
// reads and writes the subset of the PCF grammar those need:
//
//   EVENT_TYPE
//   0    30000000    Caller at level 1
//   VALUES
//   1    solve_em (module_comm_dm.f90:4939)
//   ...
//
// Unknown sections and event types are preserved on read where possible
// and ignored otherwise; writing emits only what perftrack uses.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "common/diagnostics.hpp"
#include "trace/callstack.hpp"

namespace perftrack::paraver {

// Extrae/PAPI event type codes used by the burst convention.
inline constexpr std::uint64_t kEventInstructions = 42000050;  // PAPI_TOT_INS
inline constexpr std::uint64_t kEventCycles = 42000059;        // PAPI_TOT_CYC
inline constexpr std::uint64_t kEventL1Misses = 42000052;      // PAPI_L1_DCM
inline constexpr std::uint64_t kEventL2Misses = 42000054;      // PAPI_L2_DCM
inline constexpr std::uint64_t kEventTlbMisses = 42000072;     // PAPI_TLB_DM
inline constexpr std::uint64_t kEventCaller = 30000000;        // call site

/// The caller dictionary of a PCF: value <-> source location.
class PcfConfig {
public:
  /// Register a caller value; parses "function (file:line)" labels on load.
  void set_caller(std::uint64_t value, const trace::SourceLocation& loc);

  const trace::SourceLocation* caller(std::uint64_t value) const;

  /// Find or create a caller value for a location (values start at 1).
  std::uint64_t intern_caller(const trace::SourceLocation& loc);

  const std::map<std::uint64_t, trace::SourceLocation>& callers() const {
    return callers_;
  }

  /// Free-form application name stored as a comment.
  std::string application;

private:
  std::map<std::uint64_t, trace::SourceLocation> callers_;
  std::map<std::string, std::uint64_t> by_location_;
};

/// Serialise the PCF subset.
void write_pcf(std::ostream& out, const PcfConfig& config);

/// Parse the PCF subset (caller table + application comment), reporting
/// malformed caller values to `diags` (strict collectors throw ParseError,
/// lenient ones skip the bad value).
PcfConfig read_pcf(std::istream& in, Diagnostics& diags);
PcfConfig read_pcf(std::istream& in);
PcfConfig load_pcf(const std::string& path, Diagnostics& diags);
PcfConfig load_pcf(const std::string& path);

}  // namespace perftrack::paraver
