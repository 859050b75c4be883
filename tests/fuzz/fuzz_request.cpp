// Fuzz target for perftrackd's request parser: arbitrary bytes through
// parse_request, which runs obs::parse_json and the request validation. A
// perftrack::Error (a typed bad-request ServeError) is a correct
// rejection; anything else — sanitizer abort, stack overflow, std::
// exception escaping, crash — is a finding. Every byte of a request line
// comes from a client, so this parser is the daemon's trust boundary.

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fuzz_driver.hpp"
#include "serve/protocol.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  try {
    perftrack::serve::parse_request(line);
  } catch (const perftrack::Error&) {
  }
  return 0;
}

std::vector<std::string> fuzz_seed_corpus() {
  return {
      R"({"id":1,"method":"open_study","study":"wrf",)"
      R"("params":{"eps":0.05,"min_pts":4,"lenient":true}})",
      R"({"id":"a-7","method":"append_experiment","study":"wrf",)"
      R"("params":{"trace":"#PTT 1\napp fuzz-app\ntasks 1\n)"
      R"(callstack 1 10 solver.c compute kernel\n)"
      R"(burst 0 0.0 0.1 1 1000 500 10 5 1\n","label":"E1","seq":3}})",
      R"({"id":2,"method":"trends","study":"wrf","params":{"metric":"IPC"}})",
      R"({"method":"stats","params":{"format":"json",)"
      R"("nested":[1,-2.5e3,true,null,"\u00e9\ud83d\ude00"]}})",
      R"({"id":[{"x":{}}],"method":7,"study":[]})",
      std::string(300, '[') + std::string(300, ']'),
      "not json",
      "",
  };
}
