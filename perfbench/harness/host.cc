// Host and build block: enough to tell whether two results are comparable.
#include <sched.h>
#include <sys/personality.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Whether the process's address layout is randomized (run.py turns that
/// off for the harness where the system lets it).
bool aslr() {
  const int persona = personality(0xffffffff);
  return persona == -1 || (persona & ADDR_NO_RANDOMIZE) == 0;
}

const char* yes_no(bool b) { return b ? "true" : "false"; }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string host_block_json(const std::string& git_describe) {
#ifdef RENAMING_UNCHECKED
  constexpr bool unchecked = true;
#else
  constexpr bool unchecked = false;
#endif
#ifdef RENAMING_NO_TELEMETRY
  constexpr bool no_telemetry = true;
#else
  constexpr bool no_telemetry = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  // Only optimized, unsanitized builds give reference figures.
  const bool reference = sanitize.empty() && (build_type == "Release" ||
                                              build_type == "RelWithDebInfo");
  std::string out = "{\"host\": {";
  out += "\"nproc\": " + std::to_string(usable_cpus());
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  out += ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  out += ", \"build_type\": \"" + json_escape(build_type) + "\"";
  out += std::string(", \"renaming_unchecked\": ") + yes_no(unchecked);
  out += std::string(", \"renaming_no_telemetry\": ") + yes_no(no_telemetry);
  out += ", \"sanitize\": \"" + json_escape(sanitize) + "\"";
  out += std::string(", \"aslr\": ") + yes_no(aslr());
  out += ", \"git_describe\": \"" + json_escape(git_describe) + "\"";
  out += std::string(", \"reference\": ") + yes_no(reference);
  out += "}}";
  return out;
}

}  // namespace perfbench
