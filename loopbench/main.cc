// Analysis-loop benchmark program. Runs one workload of the paper's
// exploratory -> cleaning -> confirmatory loop against StatisticalDbms
// and prints, as its last line, "RESULT " followed by one JSON object:
//   {"workload", "seed", "trace", "correct", "attempted", "failed",
//    "errors": [...], "metrics": {name: {"value", "unit"}}}
// run.py selects the metrics BENCHMARK.json names from it.
//
//   analysis_loop --workload explore|clean --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "loop.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: analysis_loop --workload explore|clean "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  loopbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(key, "--out-dir") == 0) {
      opt.out_dir = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0) return Usage();

  loopbench::Report rep;
  if (opt.workload == "explore") {
    rep = loopbench::RunExplore(opt);
  } else if (opt.workload == "clean") {
    rep = loopbench::RunClean(opt);
  } else {
    return Usage();
  }

  for (const std::string& e : rep.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  for (const auto& [name, v] : rep.metrics) {
    std::printf("%-40s %16.6f %s\n", name.c_str(), v.first, v.second.c_str());
  }
  std::string json = "{\"workload\": " + JsonString(opt.workload) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"correct\": " +
                     (rep.correct && rep.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"errors\": [";
  for (size_t i = 0; i < rep.errors.size() && i < 20; ++i) {
    json += (i > 0 ? ", " : "") + JsonString(rep.errors[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, v] : rep.metrics) {
    std::snprintf(num, sizeof(num), "%.17g", v.first);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + num +
            ", \"unit\": " + JsonString(v.second) + "}";
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
