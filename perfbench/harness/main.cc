// perfbench_harness: one process per workload run (README.md).
//
//   perfbench_harness --workload crash-hunter|byz-observed|cht-dense
//                     --seed S --seconds T --trace 0|1 [--git-describe D]
//   perfbench_harness --self-test
//
// stdout: a host/build block line, a run-description line, and as the last
// line the result object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Per-instance detail goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// Set-up takes milliseconds, so a run times it many times, in a batch of
// set-up-only repetitions after each instance, and reports the median. The
// batches follow instances because a process's first set-ups run on a heap
// not yet grown (page faults on fresh memory). The first repetitions of
// each batch run slower while caches, heap and pool threads recover from
// the instance before; they are discarded (README.md, "Metrics").
constexpr int kSetupWarmup = 4;
constexpr int kSetupBatch = 8;

struct Args {
  Workload workload = Workload::kCrashHunter;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_describe = "unknown";
  bool self_test = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "crash-hunter|byz-observed|cht-dense --seed S --seconds T "
               "--trace 0|1 [--git-describe D]\n       perfbench_harness "
               "--self-test\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args* a, std::string* why) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      *why = "missing value for " + key;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = parse_workload(value, &a->workload);
      if (!have_workload) {
        *why = std::string("unknown workload ") + value;
        return false;
      }
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(a->seconds > 0.0)) {
        *why = "--seconds must be a positive number";
        return false;
      }
    } else if (key == "--trace") {
      a->trace = std::strcmp(value, "1") == 0   ? 1
                 : std::strcmp(value, "0") == 0 ? 0
                                                : -1;
    } else if (key == "--git-describe") {
      a->git_describe = value;
    } else {
      *why = "unknown flag " + key;
      return false;
    }
  }
  if (a->self_test) return true;
  if (!have_workload || !have_seed || a->seconds <= 0.0 || a->trace < 0) {
    *why = "--workload, --seed, --seconds and --trace 0|1 are required";
    return false;
  }
  return true;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run_end_to_end(const Args& a) {
  const Workload w = a.workload;
  Env env(w);
  const std::int64_t start = clock_ns();
  std::vector<double> setups;
  std::uint32_t rep = 0;
  auto setup_batch = [&] {
    for (int i = 0; i < kSetupWarmup + kSetupBatch; ++i) {
      const double s = run_setup_only(w, a.seed, rep++, env);
      if (i >= kSetupWarmup && s >= 0.0) setups.push_back(s);
    }
  };
  std::vector<double> walls, cpus, rounds, messages, bits;
  std::uint64_t failed = 0;
  std::uint32_t index = 0;
  double last_total = 0.0;
  std::uint64_t peak_rss = 0;
  // Whole instances only: start another while it is expected to finish
  // inside the run length (at least one always runs).
  do {
    const Instance inst = run_instance(w, a.seed, index++, env);
    last_total = inst.setup_s + inst.wall_s;
    // Peak RSS of one whole instance: later instances can only add
    // allocator fragmentation, and how many run depends on the host's
    // speed.
    if (index == 1) peak_rss = peak_rss_bytes();
    walls.push_back(inst.wall_s);
    cpus.push_back(inst.cpu_s);
    rounds.push_back(static_cast<double>(inst.stats.rounds));
    messages.push_back(static_cast<double>(inst.stats.total_messages));
    bits.push_back(static_cast<double>(inst.stats.total_bits));
    if (!inst.verdict.ok()) ++failed;
    std::fprintf(stderr,
                 "instance %u: setup %.4f s, wall %.3f s, cpu %.3f s, "
                 "rounds %u, messages %llu, bits %llu%s\n",
                 index - 1, inst.setup_s, inst.wall_s, inst.cpu_s,
                 inst.stats.rounds,
                 static_cast<unsigned long long>(inst.stats.total_messages),
                 static_cast<unsigned long long>(inst.stats.total_bits),
                 inst.verdict.ok() ? "" : " FAILED");
    for (const std::string& p : inst.verdict.problems) {
      std::fprintf(stderr, "  check: %s\n", p.c_str());
    }
    setup_batch();
  } while ((clock_ns() - start) * 1e-9 + last_total <= a.seconds);

  std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"instances\": %u, \"setup_samples\": %zu}}\n",
              workload_name(w), static_cast<unsigned long long>(a.seed),
              index, setups.size());
  print_result(failed == 0, index, failed,
               {{"wall_s", median(walls), "s"},
                {"setup_s", median(setups), "s"},
                {"cpu_s", median(cpus), "s"},
                {"peak_rss_bytes", static_cast<double>(peak_rss), "bytes"},
                {"sim_rounds", median(rounds), "count"},
                {"sim_messages", median(messages), "count"},
                {"sim_bits", median(bits), "count"}});
  return 0;
}

int run_traced_mode(const Args& a) {
  Env env(a.workload);
  const TracedResult r = run_traced(a.workload, a.seed, env);
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "traced run: %s\n", p.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"traced\": true, \"runstats_equal\": %s}}\n",
              workload_name(a.workload),
              static_cast<unsigned long long>(a.seed),
              r.stats_equal ? "true" : "false");
  print_result(r.stats_equal && r.failed == 0 && r.problems.empty(),
               r.attempted, r.failed, r.metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  std::string why;
  if (!parse(argc, argv, &a, &why)) return usage(why.c_str());
  if (!checker_self_test(&why)) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 1;
  }
  if (a.self_test) {
    std::printf("checker self-test passed\n");
    return 0;
  }
  std::printf("%s\n", host_block_json(a.git_describe).c_str());
  std::fflush(stdout);
  return a.trace == 1 ? run_traced_mode(a) : run_end_to_end(a);
}
