// The three workloads, run end to end through the library's public entry
// points with a hook that marks the end of set-up (README.md, "Metrics").
#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "baselines/cht_crash.h"
#include "bench.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "common/prng.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "hooks.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "sim/engine.h"

namespace perfbench {

namespace rn = renaming;
namespace sim = renaming::sim;

namespace {

// Protocol coin seed of crash-hunter and identity/beacon seed of
// byz-observed: fixed per workload, because the committee these coins
// elect changes the simulated work up to 60x from one draw to the next
// (README.md, "Inputs and seeds"). --seed varies everything else.
constexpr std::uint64_t kCrashCoinSeed = 1;
constexpr std::uint64_t kByzIdentitySeed = 1;

std::uint64_t derive(std::uint64_t seed, std::uint32_t instance,
                     std::uint64_t salt) {
  rn::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ULL ^
                     (static_cast<std::uint64_t>(instance) << 32) ^ salt);
  return mix.next();
}

std::uint64_t namespace_of(NodeIndex n) {
  return 5ull * n * n;  // renaming_cli's default N
}

// ByzStrategyFactory is a plain function pointer, so the factory wrapper
// reads its clock from here. Only the first strategy node it builds is
// wrapped; the others come back untouched.
struct ByzHook {
  SetupClock* clock = nullptr;
  bool wrapped = false;
};
ByzHook g_byz_hook;

std::unique_ptr<sim::Node> hooked_split_reporter(
    NodeIndex v, const rn::SystemConfig& cfg, const rn::Directory& directory,
    const rn::byzantine::ByzParams& params) {
  auto node = rn::byzantine::SplitReporter::make(v, cfg, directory, params);
  if (g_byz_hook.clock == nullptr || g_byz_hook.wrapped) return node;
  g_byz_hook.wrapped = true;
  return std::make_unique<HookedNode>(std::move(node), g_byz_hook.clock);
}

class ByzHookScope {
 public:
  explicit ByzHookScope(SetupClock* clock) { g_byz_hook = {clock, false}; }
  ~ByzHookScope() { g_byz_hook = {}; }
  ByzHookScope(const ByzHookScope&) = delete;
  ByzHookScope& operator=(const ByzHookScope&) = delete;
};

sim::parallel::ShardPlan plan_of(Env& env) {
  sim::parallel::ShardPlan plan;
  plan.pool = env.pool();
  return plan;
}

/// Builds the inputs and runs the workload's entry point; everything up to
/// the hook's first callback is set-up.
void launch(Workload w, std::uint64_t seed, std::uint32_t index, Env& env,
            bool observers, SetupClock* clock, Inputs* in, Instance* inst) {
  const Spec spec = spec_of(w);
  sim::Engine::set_default_mode(spec.sparse ? sim::EngineMode::kSparse
                                            : sim::EngineMode::kDense);
  *in = make_inputs(w, seed, index);
  switch (w) {
    case Workload::kCrashHunter: {
      rn::crash::CrashParams params;
      params.election_constant = spec.election_constant;
      auto hunter = std::make_unique<rn::crash::CommitteeHunter>(
          spec.hunter_budget, rn::crash::CommitteeHunter::Mode::kAtAnnounce,
          in->adversary_seed);
      auto r = rn::crash::run_crash_renaming(
          in->cfg, params,
          std::make_unique<HookedAdversary>(std::move(hunter), clock),
          nullptr, nullptr, nullptr, plan_of(env));
      inst->stats = std::move(r.stats);
      inst->outcomes = std::move(r.outcomes);
      inst->report = std::move(r.report);
      return;
    }
    case Workload::kByzObserved: {
      rn::byzantine::ByzParams params;
      params.pool_constant = spec.pool_constant;
      params.shared_seed = in->beacon_seed;
      // Attached as renaming_cli --journal-out/--progress-out attach them
      // (ring journal above the sparse cutoff, a heartbeat every round),
      // with both outputs kept in memory.
      rn::obs::Journal journal(spec.journal_rounds);
      rn::obs::Progress progress(rn::obs::Progress::Options{});
      std::ostringstream heartbeat;
      progress.set_sink(&heartbeat);
      const ByzHookScope hook(clock);
      auto r = rn::byzantine::run_byz_renaming(
          in->cfg, params, in->byzantine, &hooked_split_reporter, 0, nullptr,
          nullptr, observers ? &journal : nullptr, {},
          observers ? &progress : nullptr);
      if (observers) {
        std::ostringstream journal_out(std::ios::binary);
        rn::obs::write_journal_binary(journal_out, journal.data());
        inst->progress_bytes = static_cast<std::uint64_t>(heartbeat.tellp());
      }
      inst->stats = std::move(r.stats);
      inst->outcomes = std::move(r.outcomes);
      inst->report = std::move(r.report);
      return;
    }
    case Workload::kChtDense: {
      // A zero-budget adversary keeps the run failure-free, and a cutoff
      // of 0 keeps it simulated rather than accounted in closed form.
      auto r = rn::baselines::run_cht_renaming(
          in->cfg,
          std::make_unique<HookedAdversary>(
              std::make_unique<sim::NoCrashAdversary>(), clock),
          nullptr, nullptr, {}, /*closed_form_cutoff=*/0);
      inst->stats = std::move(r.stats);
      inst->outcomes = std::move(r.outcomes);
      inst->report = std::move(r.report);
      return;
    }
  }
}

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kCrashHunter, Workload::kByzObserved,
                     Workload::kChtDense}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCrashHunter: return "crash-hunter";
    case Workload::kByzObserved: return "byz-observed";
    case Workload::kChtDense: return "cht-dense";
  }
  return "?";
}

Spec spec_of(Workload w) {
  Spec s;
  switch (w) {
    case Workload::kCrashHunter:
      s.n = 1u << 14;
      s.threads = 2;
      s.sparse = true;
      s.election_constant = 2.0;
      s.hunter_budget = 64;
      break;
    case Workload::kByzObserved:
      s.n = 1u << 14;
      s.sparse = true;
      s.pool_constant = 1.0;
      s.byzantine = 64;
      s.journal_rounds = 64;
      break;
    case Workload::kChtDense:
      s.n = 1u << 12;
      break;
  }
  return s;
}

Inputs make_inputs(Workload w, std::uint64_t seed, std::uint32_t instance) {
  const Spec spec = spec_of(w);
  const std::uint64_t N = namespace_of(spec.n);
  Inputs in;
  switch (w) {
    case Workload::kCrashHunter:
      in.cfg = rn::SystemConfig::random(spec.n, N, derive(seed, instance, 1));
      in.cfg.seed = kCrashCoinSeed;
      in.adversary_seed = derive(seed, instance, 2);
      break;
    case Workload::kByzObserved: {
      in.cfg = rn::SystemConfig::random(spec.n, N, kByzIdentitySeed);
      in.beacon_seed = kByzIdentitySeed;
      rn::Xoshiro256 rng(derive(seed, instance, 3));
      std::vector<char> taken(spec.n, 0);
      while (in.byzantine.size() < spec.byzantine) {
        const auto v = static_cast<NodeIndex>(rng.below(spec.n));
        if (taken[v] == 0) {
          taken[v] = 1;
          in.byzantine.push_back(v);
        }
      }
      std::sort(in.byzantine.begin(), in.byzantine.end());
      break;
    }
    case Workload::kChtDense:
      in.cfg = rn::SystemConfig::random(spec.n, N, derive(seed, instance, 4));
      break;
  }
  return in;
}

Env::Env(Workload w) {
  const unsigned threads = spec_of(w).threads;
  if (threads > 1) {
    pool_ = std::make_unique<sim::parallel::WorkerPool>(threads);
  }
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

void check_instance(Workload w, const Inputs& in, Instance* inst) {
  const Spec spec = spec_of(w);
  const rn::sim::RunStats& stats = inst->stats;
  Verdict& v = inst->verdict;
  v = check_outcomes(inst->outcomes, spec.n, w == Workload::kChtDense);
  require_agreement(inst->report, &v);
  std::uint64_t faulty = 0;
  for (const rn::NodeOutcome& o : inst->outcomes) faulty += o.correct ? 0 : 1;
  switch (w) {
    case Workload::kCrashHunter:
      if (stats.crashes > spec.hunter_budget) {
        v.problems.push_back("crashes exceed the hunter's budget");
      }
      if (stats.rounds > 9 * rn::ceil_log2(spec.n)) {
        v.problems.push_back("more than 9 * ceil(log2 n) rounds");
      }
      if (faulty != stats.crashes) {
        v.problems.push_back("crashed outcomes differ from RunStats crashes");
      }
      break;
    case Workload::kByzObserved:
      if (stats.byzantine != in.byzantine.size() ||
          faulty != in.byzantine.size()) {
        v.problems.push_back("Byzantine count differs from the input set");
      }
      break;
    case Workload::kChtDense: {
      const std::uint64_t n = spec.n;
      if (stats.total_messages != stats.rounds * n * n) {
        v.problems.push_back("messages differ from rounds * n^2");
      }
      // The closed form computes the failure-free execution instead of
      // simulating it; its RunStats must match the simulation exactly.
      const auto closed = rn::baselines::run_cht_renaming(
          in.cfg, nullptr, nullptr, nullptr, {}, /*closed_form_cutoff=*/1);
      if (!closed.closed_form || !(closed.stats == stats)) {
        v.problems.push_back("simulated RunStats differ from the closed form");
      }
      break;
    }
  }
}

Instance run_instance(Workload w, std::uint64_t seed, std::uint32_t index,
                      Env& env, bool observers) {
  Instance inst;
  Inputs in;
  SetupClock clock(false);
  launch(w, seed, index, env, observers, &clock, &in, &inst);
  check_instance(w, in, &inst);
  const std::int64_t end = clock_ns();
  const double cpu_end = cpu_s();
  inst.setup_s = clock.setup_s();
  inst.wall_s = static_cast<double>(end - clock.at_ns()) * 1e-9;
  inst.cpu_s = cpu_end - clock.cpu_at();
  return inst;
}

double run_setup_only(Workload w, std::uint64_t seed, std::uint32_t index,
                      Env& env) {
  Instance inst;
  Inputs in;
  SetupClock clock(true);
  try {
    launch(w, seed, index, env, true, &clock, &in, &inst);
  } catch (const SetupComplete&) {
    return clock.setup_s();
  }
  return -1.0;  // the run ended without a callback: no set-up figure
}

}  // namespace perfbench
