// Shared declarations of the end-to-end benchmark harness (README.md).
//
// The harness drives the simulator only through its public entry points
// and public constructors: crash::run_crash_renaming,
// byzantine::run_byz_renaming and baselines::run_cht_renaming for the
// end-to-end figures, and an engine assembled from public node classes for
// the traced per-layer figures. Nothing here reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/system.h"
#include "core/verifier.h"
#include "sim/parallel/worker_pool.h"
#include "sim/stats.h"

namespace perfbench {

using renaming::NodeIndex;

enum class Workload { kCrashHunter, kByzObserved, kChtDense };

bool parse_workload(std::string_view name, Workload* out);
const char* workload_name(Workload w);

/// Fixed shape of each workload; README.md explains every choice.
struct Spec {
  NodeIndex n = 0;
  unsigned threads = 1;
  bool sparse = false;
  // crash-hunter
  double election_constant = 0.0;
  std::uint64_t hunter_budget = 0;
  // byz-observed
  double pool_constant = 0.0;
  NodeIndex byzantine = 0;
  std::size_t journal_rounds = 0;
};
Spec spec_of(Workload w);

/// One instance's inputs, a pure function of (workload, --seed, instance).
struct Inputs {
  renaming::SystemConfig cfg;
  std::uint64_t adversary_seed = 0;              ///< crash-hunter
  std::vector<NodeIndex> byzantine;              ///< byz-observed, ascending
  std::uint64_t beacon_seed = 0;                 ///< byz-observed
};
Inputs make_inputs(Workload w, std::uint64_t seed, std::uint32_t instance);

/// Process-wide execution resources: the worker pool of the workloads that
/// run shard-parallel (created once per process, outside every timing).
class Env {
 public:
  explicit Env(Workload w);
  renaming::sim::parallel::WorkerPool* pool() { return pool_.get(); }

 private:
  std::unique_ptr<renaming::sim::parallel::WorkerPool> pool_;
};

// --- clocks -----------------------------------------------------------------

/// Nanoseconds on the steady clock (the clock obs::now_ns reads): the one
/// clock every harness timing reads.
inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_s();
/// Peak resident set of the process in bytes.
std::uint64_t peak_rss_bytes();

double median(std::vector<double> values);

// --- outside checks (check.cc) ------------------------------------------------

/// Verdict of the harness's own sort-based output check. `problems` lists
/// every failed property, including the workload-specific ones.
struct Verdict {
  bool all_decided = true;
  bool unique = true;
  bool in_range = true;
  bool order_preserving = true;
  std::vector<std::string> problems;

  bool ok() const { return problems.empty(); }
};

/// Checks the correct nodes' outcomes: every one decided, new IDs unique
/// and inside [1, n], and ascending in the original IDs. With `exact_rank`
/// each new ID must also equal its node's rank among all original IDs
/// (only meaningful when every node is correct and decided).
Verdict check_outcomes(const std::vector<renaming::NodeOutcome>& outcomes,
                       NodeIndex n, bool exact_rank);

/// Records a problem unless the program's own VerifyReport reaches the same
/// verdict on each of the four properties.
void require_agreement(const renaming::VerifyReport& report, Verdict* v);

/// Feeds the checker planted faulty outcomes and confirms it rejects each;
/// returns false (with the reason) if any slips through.
bool checker_self_test(std::string* why);

// --- instances (workloads.cc) ------------------------------------------------

struct Instance {
  double setup_s = 0.0;  ///< run start -> first callback of the hook
  double wall_s = 0.0;   ///< first callback -> end of the output check
  double cpu_s = 0.0;    ///< process CPU over the wall_s span
  renaming::sim::RunStats stats;
  std::vector<renaming::NodeOutcome> outcomes;
  renaming::VerifyReport report;      ///< the program's own verdict
  std::uint32_t loop_iterations = 0;  ///< byz traced run: max over members
  std::uint64_t progress_bytes = 0;   ///< byz: heartbeat JSONL kept in memory
  Verdict verdict;
};

/// Runs one instance through the workload's public entry point and checks
/// its outputs. `observers` = false drops byz-observed's journal and
/// heartbeat (the bare counterpart the traced run subtracts).
Instance run_instance(Workload w, std::uint64_t seed, std::uint32_t index,
                      Env& env, bool observers = true);

/// Same entry point, stopped at its first callback: returns the set-up
/// time alone (inputs, node construction, engine set-up).
double run_setup_only(Workload w, std::uint64_t seed, std::uint32_t index,
                      Env& env);

/// The workload-specific outside checks on a finished instance.
void check_instance(Workload w, const Inputs& in, Instance* inst);

// --- traced run (traced.cc) ---------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedResult {
  bool stats_equal = false;     ///< traced RunStats == untraced RunStats
  std::uint64_t attempted = 0;  ///< instances run, traced one included
  std::uint64_t failed = 0;     ///< instances that failed an outside check
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

TracedResult run_traced(Workload w, std::uint64_t seed, Env& env);

// --- host block (host.cc) -----------------------------------------------------

/// One JSON object describing host and build, so two results can be
/// judged comparable. `git_describe` comes from the caller (run.py).
std::string host_block_json(const std::string& git_describe);

}  // namespace perfbench
