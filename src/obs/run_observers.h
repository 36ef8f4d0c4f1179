// The observers a run_* entry point was handed, folded once: under
// RENAMING_NO_TELEMETRY telemetry, progress and provenance become nullptr
// here, so nodes, the engine and closed-form accounting all see the same
// pointers and none can charge an observer the others skip. The journal is
// identical across telemetry configs and never folds (obs/journal.h).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "obs/journal.h"
#include "obs/kind_registry.h"
#include "obs/progress.h"
#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "sim/parallel/plan.h"

namespace renaming::obs {

struct RunObservers {
  RunObservers(Telemetry* tel, Journal* jrn, Progress* prg, Provenance* prov)
      : telemetry(kTelemetryEnabled ? tel : nullptr),
        journal(jrn),
        progress(kTelemetryEnabled ? prg : nullptr),
        provenance(kTelemetryEnabled ? prov : nullptr) {}

  /// Loads the canonical kind -> phase table (obs/kind_registry.h) into a
  /// live telemetry, names the run on every observer and opens the
  /// provenance recording. Call before building nodes: their constructors
  /// may record provenance events (self-elections).
  void start(const std::string& algorithm, NodeIndex n,
             std::uint64_t f) const {
    if (telemetry != nullptr) {
      for (const KindAttribution& row : kKindAttributions) {
        telemetry->map_kind(row.kind, row.phase);
      }
      telemetry->set_run_info(algorithm, n, f);
    }
    if (journal != nullptr) journal->set_run_info(algorithm, n, f);
    if (progress != nullptr) progress->set_run_info(algorithm);
    if (provenance != nullptr) {
      provenance->set_run_info(algorithm, n, f);
      provenance->begin_run(n);
    }
  }

  /// Attaches every observer and the shard plan to `engine`.
  void attach(sim::Engine& engine,
              const sim::parallel::ShardPlan& plan) const {
    engine.set_telemetry(telemetry);
    engine.set_journal(journal);
    engine.set_progress(progress);
    engine.set_provenance(provenance);
    engine.set_parallel(plan);
  }

  Telemetry* const telemetry;
  Journal* const journal;
  Progress* const progress;
  Provenance* const provenance;
};

}  // namespace renaming::obs
