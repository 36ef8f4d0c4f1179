// The traced run: per-layer figures for one instance of a workload.
//
// crash-hunter and byz-observed assemble their engine from public
// constructors exactly as run_crash_renaming / run_byz_renaming do, with
// every node wrapped in a HookedNode that times its callbacks, and with the
// engine-phase split read from an attached obs::ShardProfile. The wrapped
// run's RunStats must equal the untraced run's: that equality is what
// shows the wrappers changed nothing (CommitteeHunter, for one, finds
// committee members by dynamic_cast<const CrashNode*>, so it is handed the
// unwrapped nodes). cht-dense's node class is private to cht_crash.cc, so
// its traced run goes through run_cht_renaming with the profile attached,
// and the send and receive phases are charged to the baselines layer whole.
#include <algorithm>
#include <sstream>
#include <utility>

#include "baselines/cht_crash.h"
#include "bench.h"
#include "byzantine/byz_renaming.h"
#include "byzantine/strategies.h"
#include "common/math.h"
#include "consensus/committee.h"
#include "crash/adversaries.h"
#include "crash/crash_renaming.h"
#include "hashing/coefficient_cache.h"
#include "hooks.h"
#include "obs/journal.h"
#include "obs/progress.h"
#include "obs/shard_profile.h"
#include "sim/engine.h"

namespace perfbench {

namespace rn = renaming;
namespace sim = renaming::sim;
using rn::obs::ShardPhase;

namespace {

/// Cost of the timing wrapper itself, measured around a node whose
/// callbacks do nothing. `inside_ns` is what a wrapped callback's own
/// duration picks up per call (about one clock read); `outside_ns` is the
/// rest, which lands in the engine phase around the callback.
struct WrapperCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

WrapperCost calibrate_wrapper() {
  class Noop final : public sim::Node {
   public:
    void send(rn::Round, sim::Outbox&) override {}
    void receive(rn::Round, sim::InboxView) override {}
    bool done() const override { return true; }
  };
  Noop noop;
  HookedNode timed(&noop, Charge::kStrategy, kStrategy);
  sim::Node* volatile node = &timed;  // keep the engine's virtual call
  sim::Outbox out(0, 1);
  constexpr int kCalls = 100000;
  std::vector<double> inside;
  std::vector<double> total;
  for (int rep = 0; rep < 7; ++rep) {
    const std::int64_t before = timed.ledger().send_ns;
    const std::int64_t t0 = clock_ns();
    for (int i = 0; i < kCalls; ++i) node->send(1, out);
    const std::int64_t t1 = clock_ns();
    inside.push_back(static_cast<double>(timed.ledger().send_ns - before) /
                     kCalls);
    total.push_back(static_cast<double>(t1 - t0) / kCalls);
  }
  WrapperCost cost;
  cost.inside_ns = median(inside);
  cost.outside_ns = std::max(0.0, median(total) - cost.inside_ns);
  return cost;
}

/// Raw spans and ledgers of one traced instance, in ns.
struct Trace {
  std::int64_t start = 0;          ///< before the inputs are built
  std::int64_t inputs = 0;         ///< core: identities, faults, adversary
  std::int64_t construct_nodes = 0;
  std::int64_t construct_engine = 0;  ///< engine ctor + set-up in run()
  std::int64_t first_callback = 0;
  std::int64_t run_end = 0;
  std::int64_t verify = 0;
  std::int64_t end = 0;            ///< after the outside check
  std::int64_t adversary = 0;
  Ledger nodes;
  rn::obs::ShardProfileData profile;
  Instance inst;
};

sim::parallel::ShardPlan traced_plan(Env& env, rn::obs::ShardProfile* prof) {
  sim::parallel::ShardPlan plan;
  plan.pool = env.pool();
  plan.profile = prof;
  return plan;
}

/// Ring large enough for cht-dense's rounds, whose round-1 sample the
/// construct split needs; the other workloads read only run totals.
rn::obs::ShardProfile::Options profile_options() {
  rn::obs::ShardProfile::Options opts;
  opts.ring_capacity = 16;
  return opts;
}

/// Wraps `inner` for the engine; `timed` keeps the wrappers' addresses.
std::vector<std::unique_ptr<sim::Node>> wrap(
    const std::vector<std::unique_ptr<sim::Node>>& inner,
    const std::vector<bool>& strategy, Charge charge, unsigned initial,
    std::vector<const HookedNode*>* timed) {
  std::vector<std::unique_ptr<sim::Node>> out;
  out.reserve(inner.size());
  timed->reserve(inner.size());
  for (std::size_t v = 0; v < inner.size(); ++v) {
    const bool strat = !strategy.empty() && strategy[v];
    auto node = std::make_unique<HookedNode>(
        inner[v].get(), strat ? Charge::kStrategy : charge,
        strat ? kStrategy : initial);
    timed->push_back(node.get());
    out.push_back(std::move(node));
  }
  return out;
}

/// Runs `engine` and fills the run spans and ledgers of `t`.
void run_engine(sim::Engine& engine, rn::Round max_rounds,
                const std::vector<const HookedNode*>& timed,
                const HookedAdversary* adversary, std::int64_t run_start,
                Trace* t) {
  t->inst.stats = engine.run(max_rounds);
  t->run_end = clock_ns();
  for (const HookedNode* node : timed) t->nodes.add(node->ledger());
  t->first_callback = t->nodes.first_ns;
  if (adversary != nullptr) {
    t->adversary = adversary->ns();
    if (adversary->first_ns() != 0) {
      t->first_callback = std::min(t->first_callback, adversary->first_ns());
    }
  }
  t->construct_engine += t->first_callback - run_start;
}

void finish(Workload w, const Inputs& in, Trace* t) {
  const std::int64_t verify_start = clock_ns();
  t->inst.report = rn::verify_renaming(t->inst.outcomes, spec_of(w).n);
  t->verify = clock_ns() - verify_start;
  check_instance(w, in, &t->inst);
  t->end = clock_ns();
}

Trace traced_crash(std::uint64_t seed, Env& env) {
  const Spec spec = spec_of(Workload::kCrashHunter);
  Trace t;
  t.start = clock_ns();
  const Inputs in = make_inputs(Workload::kCrashHunter, seed, 0);
  auto hunter = std::make_unique<rn::crash::CommitteeHunter>(
      spec.hunter_budget, rn::crash::CommitteeHunter::Mode::kAtAnnounce,
      in.adversary_seed);
  const std::int64_t t1 = clock_ns();
  t.inputs = t1 - t.start;

  rn::crash::CrashParams params;
  params.election_constant = spec.election_constant;
  std::vector<std::unique_ptr<sim::Node>> inner;
  inner.reserve(spec.n);
  for (NodeIndex v = 0; v < spec.n; ++v) {
    inner.push_back(std::make_unique<rn::crash::CrashNode>(v, in.cfg, params));
  }
  const std::int64_t t2 = clock_ns();
  t.construct_nodes = t2 - t1;

  std::vector<const HookedNode*> timed;
  auto wrapped = wrap(inner, {}, Charge::kCrashSubround, kAnnounce, &timed);
  auto adversary =
      std::make_unique<HookedAdversary>(std::move(hunter), nullptr, &inner);
  const HookedAdversary* adv = adversary.get();
  rn::obs::ShardProfile profile(profile_options());
  profile.set_run_info("crash");
  {
    const std::int64_t t3 = clock_ns();
    sim::Engine engine(std::move(wrapped), std::move(adversary));
    engine.set_mode(sim::EngineMode::kSparse);
    engine.set_parallel(traced_plan(env, &profile));
    const std::int64_t run_start = clock_ns();
    t.construct_engine = run_start - t3;
    run_engine(engine,
               params.phase_multiplier * rn::ceil_log2(spec.n) * 3, timed,
               adv, run_start, &t);
    t.inst.outcomes.reserve(spec.n);
    for (NodeIndex v = 0; v < spec.n; ++v) {
      const auto& node = static_cast<const rn::crash::CrashNode&>(*inner[v]);
      t.inst.outcomes.push_back(
          {node.original_id(), node.new_id(), engine.alive(v)});
    }
  }
  inner.clear();
  t.profile = profile.data();
  finish(Workload::kCrashHunter, in, &t);
  return t;
}

Trace traced_byz(std::uint64_t seed, Env& env) {
  const Spec spec = spec_of(Workload::kByzObserved);
  Trace t;
  t.start = clock_ns();
  const Inputs in = make_inputs(Workload::kByzObserved, seed, 0);
  const std::int64_t t1 = clock_ns();
  t.inputs = t1 - t.start;

  // The same assembly as run_byz_renaming on a serial plan: one memoizing
  // coefficient cache and one committee-view pool for the whole run.
  rn::byzantine::ByzParams params;
  params.pool_constant = spec.pool_constant;
  params.shared_seed = in.beacon_seed;
  const rn::Directory directory(in.cfg);
  const auto cache = rn::hashing::make_coefficient_cache(params.shared_seed);
  rn::consensus::ViewInterner interner;
  std::vector<bool> is_byz(spec.n, false);
  for (NodeIndex b : in.byzantine) is_byz[b] = true;
  std::vector<std::unique_ptr<sim::Node>> inner;
  inner.reserve(spec.n);
  for (NodeIndex v = 0; v < spec.n; ++v) {
    if (is_byz[v]) {
      inner.push_back(
          rn::byzantine::SplitReporter::make(v, in.cfg, directory, params));
    } else {
      inner.push_back(std::make_unique<rn::byzantine::ByzNode>(
          v, in.cfg, directory, params, cache, nullptr, &interner));
    }
  }
  const std::int64_t t2 = clock_ns();
  t.construct_nodes = t2 - t1;

  std::vector<const HookedNode*> timed;
  auto wrapped = wrap(inner, is_byz, Charge::kByzTag, kElect, &timed);
  rn::obs::Journal journal(spec.journal_rounds);
  rn::obs::Progress progress(rn::obs::Progress::Options{});
  std::ostringstream heartbeat;
  progress.set_sink(&heartbeat);
  journal.set_run_info("byz", spec.n, in.byzantine.size());
  progress.set_run_info("byz");
  rn::obs::ShardProfile profile(profile_options());
  profile.set_run_info("byz");
  {
    const std::int64_t t3 = clock_ns();
    sim::Engine engine(std::move(wrapped));
    engine.set_mode(sim::EngineMode::kSparse);
    engine.set_journal(&journal);
    engine.set_progress(&progress);
    engine.set_parallel(traced_plan(env, &profile));
    for (NodeIndex b : in.byzantine) engine.mark_byzantine(b);
    const std::int64_t run_start = clock_ns();
    t.construct_engine = run_start - t3;
    // run_byz_renaming's upper clamp on its round cap. The run ends far
    // earlier, so the cap does not change it; the RunStats equality check
    // confirms that.
    run_engine(engine, 4'000'000, timed, nullptr, run_start, &t);
  }
  std::ostringstream journal_out(std::ios::binary);
  rn::obs::write_journal_binary(journal_out, journal.data());
  t.inst.progress_bytes = static_cast<std::uint64_t>(heartbeat.tellp());
  t.inst.outcomes.reserve(spec.n);
  for (NodeIndex v = 0; v < spec.n; ++v) {
    rn::NodeOutcome o;
    o.original_id = in.cfg.ids[v];
    o.correct = !is_byz[v];
    if (const auto* node =
            dynamic_cast<const rn::byzantine::ByzNode*>(inner[v].get())) {
      o.new_id = node->new_id();
      if (o.correct && node->elected()) {
        t.inst.loop_iterations =
            std::max(t.inst.loop_iterations, node->loop_iterations());
      }
    }
    t.inst.outcomes.push_back(o);
  }
  inner.clear();
  t.profile = profile.data();
  finish(Workload::kByzObserved, in, &t);
  return t;
}

Trace traced_cht(std::uint64_t seed, Env& env) {
  const Spec spec = spec_of(Workload::kChtDense);
  Trace t;
  sim::Engine::set_default_mode(sim::EngineMode::kDense);
  t.start = clock_ns();
  const Inputs in = make_inputs(Workload::kChtDense, seed, 0);
  const std::int64_t t1 = clock_ns();
  t.inputs = t1 - t.start;

  auto adversary = std::make_unique<HookedAdversary>(
      std::make_unique<sim::NoCrashAdversary>(), nullptr);
  const HookedAdversary* adv = adversary.get();
  rn::obs::ShardProfile profile(profile_options());
  profile.set_run_info("cht");
  auto r = rn::baselines::run_cht_renaming(in.cfg, std::move(adversary),
                                           nullptr, nullptr,
                                           traced_plan(env, &profile), 0);
  t.run_end = clock_ns();
  t.first_callback = adv->first_ns();
  t.adversary = adv->ns();
  t.profile = profile.data();
  // Node construction and engine set-up happen inside the entry point;
  // the hook fires after round 1's send phase, which the profile times.
  std::int64_t round1 = 0;
  if (!t.profile.samples.empty() && t.profile.samples.front().round == 1) {
    const auto& busy = t.profile.samples.front().busy_ns;
    const std::size_t shards = t.profile.shards;
    for (ShardPhase p : {ShardPhase::kMerge, ShardPhase::kSend}) {
      for (std::size_t s = 0; s < shards; ++s) {
        round1 += busy[static_cast<std::size_t>(p) * shards + s];
      }
    }
  }
  t.construct_engine = t.first_callback - t1 - round1;
  t.inst.stats = std::move(r.stats);
  t.inst.outcomes = std::move(r.outcomes);
  t.inst.report = std::move(r.report);
  check_instance(Workload::kChtDense, in, &t.inst);
  t.end = clock_ns();
  // The entry point verified its outcomes inside the run; time the same
  // verifier call on them, outside the traced span, to split it out.
  const std::int64_t verify_start = clock_ns();
  const bool verified = rn::verify_renaming(t.inst.outcomes, spec.n).ok();
  t.verify = clock_ns() - verify_start;
  if (verified != t.inst.report.ok()) {
    t.inst.verdict.problems.push_back("the verifier's second verdict differs");
  }
  return t;
}

struct PhaseTotals {
  std::int64_t busy = 0;
  std::int64_t wait = 0;
};

PhaseTotals phase_totals(const rn::obs::ShardProfileData& d, ShardPhase p) {
  PhaseTotals out;
  for (const auto& cell : d.totals[static_cast<std::size_t>(p)]) {
    out.busy += cell.busy_ns;
    out.wait += cell.wait_ns;
  }
  return out;
}

/// max / mean over shards of their summed send + receive busy time.
double shard_imbalance(const rn::obs::ShardProfileData& d) {
  std::vector<double> per_shard(d.shards, 0.0);
  for (ShardPhase p : {ShardPhase::kSend, ShardPhase::kReceive}) {
    const auto& cells = d.totals[static_cast<std::size_t>(p)];
    for (std::size_t s = 0; s < cells.size() && s < per_shard.size(); ++s) {
      per_shard[s] += static_cast<double>(cells[s].busy_ns);
    }
  }
  double sum = 0.0;
  double max = 0.0;
  for (double b : per_shard) {
    sum += b;
    max = std::max(max, b);
  }
  return sum > 0.0 ? max * static_cast<double>(per_shard.size()) / sum : 0.0;
}

}  // namespace

TracedResult run_traced(Workload w, std::uint64_t seed, Env& env) {
  TracedResult res;
  // Untraced references on the traced instance's inputs (instance 0). For
  // byz-observed they alternate with bare runs (no journal, no heartbeat);
  // the observers' cost is the difference of the two medians.
  const int pairs = w == Workload::kChtDense      ? 3
                    : w == Workload::kByzObserved ? 2
                                                  : 1;
  std::vector<double> walls;
  std::vector<double> bare_walls;
  std::vector<Instance> refs;
  for (int i = 0; i < pairs; ++i) {
    refs.push_back(run_instance(w, seed, 0, env, true));
    walls.push_back(refs.back().wall_s);
    res.failed += refs.back().verdict.ok() ? 0 : 1;
    if (w != Workload::kByzObserved) continue;
    const Instance bare = run_instance(w, seed, 0, env, false);
    bare_walls.push_back(bare.wall_s);
    res.failed += bare.verdict.ok() ? 0 : 1;
    if (!(bare.stats == refs.front().stats)) {
      res.problems.push_back("observers changed the byz RunStats");
    }
  }
  res.attempted = refs.size() + bare_walls.size() + 1;
  const Instance& ref = refs.front();
  const double observers_s =
      bare_walls.empty() ? 0.0 : median(walls) - median(bare_walls);

  Trace t;
  switch (w) {
    case Workload::kCrashHunter: t = traced_crash(seed, env); break;
    case Workload::kByzObserved: t = traced_byz(seed, env); break;
    case Workload::kChtDense: t = traced_cht(seed, env); break;
  }
  res.failed += t.inst.verdict.ok() ? 0 : 1;
  for (const std::string& p : t.inst.verdict.problems) {
    res.problems.push_back("traced instance: " + p);
  }
  bool same_outcomes = t.inst.outcomes.size() == ref.outcomes.size();
  for (std::size_t v = 0; same_outcomes && v < ref.outcomes.size(); ++v) {
    same_outcomes = t.inst.outcomes[v].new_id == ref.outcomes[v].new_id &&
                    t.inst.outcomes[v].correct == ref.outcomes[v].correct;
  }
  res.stats_equal = t.inst.stats == ref.stats && same_outcomes;
  if (!res.stats_equal) {
    res.problems.push_back("traced RunStats or outcomes differ from untraced");
  }

  const bool wrapped = w != Workload::kChtDense;
  const rn::obs::ShardProfileData& prof = t.profile;
  const double shards = prof.shards > 0 ? prof.shards : 1.0;
  const PhaseTotals send = phase_totals(prof, ShardPhase::kSend);
  const PhaseTotals recv = phase_totals(prof, ShardPhase::kReceive);
  const double deliver = phase_totals(prof, ShardPhase::kDeliver).busy;
  const double merge = phase_totals(prof, ShardPhase::kMerge).busy;
  const double messages =
      std::max<double>(1.0, static_cast<double>(t.inst.stats.total_messages));
  const double rounds =
      std::max<double>(1.0, static_cast<double>(t.inst.stats.rounds));
  const Ledger& cb = t.nodes;
  const double s = 1e-9;

  // Node callback time without the wrapper's own clock reads, and the
  // engine's self time in the send and receive phases without the
  // wrapper's cost around each call (all in summed shard-busy ns).
  const WrapperCost cost = wrapped ? calibrate_wrapper() : WrapperCost{};
  auto net = [&](double ns, std::uint64_t calls) {
    return std::max(0.0, ns - static_cast<double>(calls) * cost.inside_ns);
  };
  const double cb_send = net(cb.send_ns, cb.send_calls);
  const double cb_recv = net(cb.receive_ns, cb.receive_calls);
  const double wrap_send =
      static_cast<double>(cb.send_calls) * (cost.inside_ns + cost.outside_ns);
  const double wrap_recv = static_cast<double>(cb.receive_calls) *
                           (cost.inside_ns + cost.outside_ns);
  // Unwrapped (cht-dense): the whole send and receive phases are the
  // baseline's callbacks, the engine's part being one call per node.
  const double sim_send =
      wrapped ? std::max(0.0, send.busy - cb_send - wrap_send) : 0.0;
  const double sim_recv =
      wrapped ? std::max(0.0, recv.busy - cb_recv - wrap_recv) : 0.0;
  const double sim_deliver = deliver - static_cast<double>(t.adversary);

  // Wall-clock view, for the per-round overhead and the reconciliation: a
  // parallel phase lasts its shards' busy + wait over K, and the part of
  // it the wrappers cost belongs to no layer.
  auto phase_wall = [&](const PhaseTotals& p) {
    return static_cast<double>(p.busy + p.wait) / shards;
  };
  auto layer_wall = [&](const PhaseTotals& p, double wrapper_ns) {
    return p.busy > 0 ? phase_wall(p) * (1.0 - wrapper_ns / p.busy) : 0.0;
  };
  double run_wall = static_cast<double>(t.run_end - t.first_callback);
  // cht-dense's span ends after the entry point's own verify call.
  if (!wrapped) run_wall -= static_cast<double>(t.verify);
  const double between_phases =
      std::max(0.0, run_wall - phase_wall(send) - phase_wall(recv) - deliver -
                        merge);
  const double node_callbacks =
      wrapped ? static_cast<double>(cb.send_calls + cb.receive_calls)
              : 2.0 * spec_of(w).n * t.inst.stats.rounds;
  auto bucket = [&](unsigned b) {
    return net(cb.bucket_ns[b], cb.bucket_calls[b]) * s;
  };
  const bool is_crash = w == Workload::kCrashHunter;
  const bool is_byz = w == Workload::kByzObserved;

  const double traced_wall = (t.end - t.first_callback) * s;
  const double total = (t.end - t.start) * s;
  const double accounted =
      (t.inputs + t.construct_nodes + t.construct_engine + merge + deliver +
       layer_wall(send, wrap_send) + layer_wall(recv, wrap_recv) +
       between_phases + t.verify) * s;
  // The wrappers' own cost is tracing, not a layer: the share is taken of
  // the traced wall time without it.
  const double wrapper_wall = (phase_wall(send) - layer_wall(send, wrap_send) +
                               phase_wall(recv) - layer_wall(recv, wrap_recv)) *
                              s;
  const double untraced_total = total - wrapper_wall;

  res.metrics = {
      {"sim.construct_s", t.construct_engine * s, "s"},
      {"sim.send_s", sim_send * s, "s"},
      {"sim.send_ns_per_msg", sim_send / messages, "ns/msg"},
      {"sim.deliver_s", sim_deliver * s, "s"},
      {"sim.deliver_ns_per_msg", sim_deliver / messages, "ns/msg"},
      {"sim.receive_s", sim_recv * s, "s"},
      {"sim.merge_s", merge * s, "s"},
      {"sim.round_overhead_us", between_phases / rounds * 1e-3, "us"},
      {"sim.node_callbacks", node_callbacks, "count"},
      {"parallel.barrier_wait_share", rn::obs::barrier_wait_share(prof),
       "ratio"},
      {"parallel.shard_imbalance", shard_imbalance(prof), "ratio"},
      {"crash.construct_s", is_crash ? t.construct_nodes * s : 0.0, "s"},
      {"crash.announce_s", bucket(kAnnounce), "s"},
      {"crash.status_s", bucket(kStatus), "s"},
      {"crash.response_s", bucket(kResponse), "s"},
      {"crash.adversary_s", is_crash ? t.adversary * s : 0.0, "s"},
      {"byzantine.construct_s", is_byz ? t.construct_nodes * s : 0.0, "s"},
      {"byzantine.elect_s", bucket(kElect), "s"},
      {"byzantine.id_report_s", bucket(kIdReport), "s"},
      {"byzantine.validator_s", bucket(kValidator), "s"},
      {"byzantine.consensus_s", bucket(kConsensus), "s"},
      {"byzantine.diff_s", bucket(kDiff), "s"},
      {"byzantine.new_s", bucket(kNew), "s"},
      {"byzantine.strategy_s", bucket(kStrategy), "s"},
      {"byzantine.loop_iterations",
       static_cast<double>(t.inst.loop_iterations), "count"},
      {"baselines.cht_send_s", wrapped ? 0.0 : send.busy * s, "s"},
      {"baselines.cht_receive_ns_per_msg",
       wrapped ? 0.0 : recv.busy / messages, "ns/msg"},
      {"core.inputs_s", t.inputs * s, "s"},
      {"core.verify_s", t.verify * s, "s"},
      {"obs.observers_s", observers_s, "s"},
      {"obs.progress_bytes", static_cast<double>(ref.progress_bytes),
       "bytes"},
      {"trace.overhead_s", traced_wall - median(walls), "s"},
      {"trace.wrapper_ns_per_call", cost.inside_ns + cost.outside_ns, "ns"},
      {"trace.unaccounted_share",
       untraced_total > 0.0 ? 1.0 - accounted / untraced_total : 0.0,
       "ratio"},
  };
  return res;
}

}  // namespace perfbench
