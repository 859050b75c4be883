#include "paraver/pcf.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perftrack::paraver {

namespace {

std::string caller_label(const trace::SourceLocation& loc) {
  return loc.function + " (" + loc.file + ":" + std::to_string(loc.line) +
         ")";
}

std::string caller_key(const trace::SourceLocation& loc) {
  return loc.file + "\x1f" + std::to_string(loc.line) + "\x1f" +
         loc.function;
}

/// Parse "function (file:line)"; falls back to the whole label as the
/// function name when the "(file:line)" suffix is absent.
trace::SourceLocation parse_caller_label(std::string_view label) {
  trace::SourceLocation loc;
  std::size_t open = label.rfind(" (");
  std::size_t close = label.rfind(')');
  if (open != std::string_view::npos && close == label.size() - 1) {
    std::string_view inside = label.substr(open + 2, close - open - 2);
    std::size_t colon = inside.rfind(':');
    if (colon != std::string_view::npos) {
      std::string_view line_text = inside.substr(colon + 1);
      bool numeric = !line_text.empty();
      for (char c : line_text)
        if (c < '0' || c > '9') numeric = false;
      if (numeric) {
        // from_chars instead of stoul: overflowing line numbers in crafted
        // files must not throw std::out_of_range past the parser.
        std::uint32_t line_value = 0;
        std::from_chars(line_text.data(), line_text.data() + line_text.size(),
                        line_value);
        loc.function = std::string(trim(label.substr(0, open)));
        loc.file = std::string(inside.substr(0, colon));
        loc.line = line_value;
        return loc;
      }
    }
  }
  loc.function = std::string(trim(label));
  loc.file = "<unknown>";
  loc.line = 0;
  return loc;
}

}  // namespace

void PcfConfig::set_caller(std::uint64_t value,
                           const trace::SourceLocation& loc) {
  callers_[value] = loc;
  by_location_[caller_key(loc)] = value;
}

const trace::SourceLocation* PcfConfig::caller(std::uint64_t value) const {
  auto it = callers_.find(value);
  return it == callers_.end() ? nullptr : &it->second;
}

std::uint64_t PcfConfig::intern_caller(const trace::SourceLocation& loc) {
  auto it = by_location_.find(caller_key(loc));
  if (it != by_location_.end()) return it->second;
  std::uint64_t value = callers_.empty() ? 1 : callers_.rbegin()->first + 1;
  set_caller(value, loc);
  return value;
}

void write_pcf(std::ostream& out, const PcfConfig& config) {
  out << "DEFAULT_OPTIONS\n\nLEVEL               TASK\nUNITS               "
         "NANOSEC\n\n";
  if (!config.application.empty())
    out << "# APPLICATION " << config.application << "\n\n";

  out << "EVENT_TYPE\n";
  out << "0    " << kEventInstructions << "    (PAPI_TOT_INS) Instr "
         "completed\n";
  out << "0    " << kEventCycles << "    (PAPI_TOT_CYC) Total cycles\n";
  out << "0    " << kEventL1Misses << "    (PAPI_L1_DCM) L1D cache misses\n";
  out << "0    " << kEventL2Misses << "    (PAPI_L2_DCM) L2D cache misses\n";
  out << "0    " << kEventTlbMisses << "    (PAPI_TLB_DM) Data TLB misses\n";
  out << "\nEVENT_TYPE\n";
  out << "0    " << kEventCaller << "    Caller at level 1\n";
  out << "VALUES\n";
  out << "0      End\n";
  for (const auto& [value, loc] : config.callers())
    out << value << "      " << caller_label(loc) << "\n";
  if (!out) throw IoError("pcf write failed");
}

PcfConfig read_pcf(std::istream& in, Diagnostics& diags) {
  PcfConfig config;
  std::string line;
  int line_no = 0;
  bool in_caller_type = false;
  bool in_values = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view text = trim(line);
    if (starts_with(text, "# APPLICATION ")) {
      config.application = std::string(trim(text.substr(14)));
      continue;
    }
    if (text == "EVENT_TYPE") {
      in_caller_type = false;
      in_values = false;
      continue;
    }
    if (text == "VALUES") {
      in_values = true;
      continue;
    }
    if (text.empty()) {
      in_caller_type = false;
      in_values = false;
      continue;
    }
    if (!in_values) {
      // "gradient  type  label": detect the caller event type.
      std::istringstream fields{std::string(text)};
      std::uint64_t gradient = 0, type = 0;
      if (fields >> gradient >> type && type == kEventCaller)
        in_caller_type = true;
      continue;
    }
    if (in_values && in_caller_type) {
      diags.count_record();
      // "value  label..."
      std::size_t space = text.find_first_of(" \t");
      if (space == std::string_view::npos) {
        diags.error(line_no, "bad-pcf-value",
                    "malformed PCF value line: " + std::string(text));
        continue;
      }
      std::string value_text(text.substr(0, space));
      std::uint64_t value = 0;
      auto [ptr, ec] = std::from_chars(
          value_text.data(), value_text.data() + value_text.size(), value);
      if (ec != std::errc{} || ptr != value_text.data() + value_text.size()) {
        diags.error(line_no, "bad-pcf-value",
                    "bad PCF caller value: " + value_text);
        continue;
      }
      if (value == 0) continue;  // the "End" sentinel
      config.set_caller(value,
                        parse_caller_label(trim(text.substr(space))));
    }
  }
  if (in.bad()) throw io_error("pcf read failed", diags.file());
  return config;
}

PcfConfig read_pcf(std::istream& in) {
  Diagnostics diags;
  return read_pcf(in, diags);
}

PcfConfig load_pcf(const std::string& path, Diagnostics& diags) {
  diags.set_file(path);
  errno = 0;
  std::ifstream in(path);
  if (!in) throw io_error("cannot open for reading", path);
  return read_pcf(in, diags);
}

PcfConfig load_pcf(const std::string& path) {
  Diagnostics diags;
  return load_pcf(path, diags);
}

}  // namespace perftrack::paraver
