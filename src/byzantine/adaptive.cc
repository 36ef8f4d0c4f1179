#include "byzantine/adaptive.h"

#include "obs/provenance.h"
#include "obs/run_observers.h"
#include "obs/telemetry.h"
#include "sim/engine.h"

namespace renaming::byzantine {

AdaptiveRunResult run_adaptive_experiment(const SystemConfig& cfg,
                                          const ByzParams& params,
                                          std::uint64_t budget,
                                          Round max_rounds,
                                          obs::Telemetry* telemetry,
                                          obs::Journal* journal,
                                          sim::parallel::ShardPlan plan,
                                          obs::Progress* progress,
                                          obs::Provenance* provenance) {
  // The plan is deliberately unused: try_corrupt_member hands out the
  // corruption budget first-come-first-served in engine node order, so a
  // shard-parallel receive phase would race on the controller and change
  // which members turn. This experiment always runs serial (see header).
  (void)plan;
  const Directory directory(cfg);
  AdaptiveController controller(budget);
  const auto coeff_cache = hashing::make_coefficient_cache(params.shared_seed);

  const obs::RunObservers observers(telemetry, journal, progress, provenance);
  observers.start("byz-adaptive", cfg.n, budget);

  std::vector<std::unique_ptr<sim::Node>> nodes;
  nodes.reserve(cfg.n);
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    nodes.push_back(std::make_unique<TurncoatNode>(
        v, cfg, directory, params, controller, coeff_cache,
        observers.telemetry, observers.provenance));
  }
  sim::Engine engine(std::move(nodes));
  observers.attach(engine, /*plan=*/{});  // always serial, see above

  if (max_rounds == 0) {
    // A wrecked run never terminates on its own; keep the cap modest so
    // the failure is observable quickly, but large enough for honest runs.
    max_rounds = 400 * protocol_log(cfg.n);
  }

  AdaptiveRunResult result;
  result.stats = engine.run(max_rounds);
  result.corrupted = controller.spent();
  if (observers.provenance != nullptr) {
    // The adaptive adversary's picks are only known after the run.
    for (NodeIndex b : controller.corrupted()) {
      observers.provenance->mark_faulty(b);
    }
  }

  std::vector<NodeOutcome> outcomes;
  std::vector<bool> turned(cfg.n, false);
  for (NodeIndex b : controller.corrupted()) turned[b] = true;
  for (NodeIndex v = 0; v < cfg.n; ++v) {
    const auto& node = dynamic_cast<const TurncoatNode&>(engine.node(v));
    result.committee_size =
        std::max<std::uint64_t>(result.committee_size,
                                node.honest().view().size());
    outcomes.push_back(NodeOutcome{cfg.ids[v], node.honest().new_id(),
                                   /*correct=*/!turned[v]});
  }
  result.report = verify_renaming(outcomes, cfg.n);
  return result;
}

}  // namespace renaming::byzantine
