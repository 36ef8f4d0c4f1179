// Canonical per-kind attribution: which protocol phase a wire kind's
// traffic books to, and which provenance event its deliveries trigger.
//
// Two consumers need the kind -> phase mapping without a live Telemetry
// object: the flight-recorder journal (obs/journal.h) must attribute
// traffic identically whether or not telemetry is attached (its bytes are
// pinned byte-identical across telemetry configs), and the doctor
// (obs/doctor.h) re-derives phase ledgers from journals written by other
// processes. This header is the single source of truth: every run_* entry
// point loads it into its live Telemetry (obs/run_observers.h), and
// tests/obs_journal_test.cc pins that journal and telemetry ledgers agree.
//
// The table is row-parallel with sim::wire::kWireSchemas, the only list of
// shipped kinds (sim/ cannot include obs/, so the attribution lives here).
// One static_assert below pins the same kinds in the same order and a real
// phase on every row, so a kind cannot ship without an attribution and the
// `unattributed` ledger stays 0 on shipped protocols.
#pragma once

#include <cstddef>
#include <span>

#include "common/check.h"
#include "obs/phase.h"
#include "obs/provenance_kinds.h"
#include "sim/message.h"
#include "sim/wire_schema.h"

namespace renaming::obs {

struct KindAttribution {
  sim::MsgKind kind;
  PhaseId phase;
  ProvEventKind event;  ///< event its deliveries canonically trigger
};

/// One row per kWireSchemas row, in the same order.
inline constexpr KindAttribution kKindAttributions[] = {
    // crash/crash_renaming.h (Tag)
    {1, PhaseId::kCommitteeAnnounce, ProvEventKind::kCommitteeVote},
    {2, PhaseId::kStatusReport, ProvEventKind::kCommitteeVote},
    {3, PhaseId::kCommitteeResponse, ProvEventKind::kNameProposal},
    // byzantine/byz_renaming.h (Tag)
    {10, PhaseId::kCommitteeElection, ProvEventKind::kCommitteeVote},
    {11, PhaseId::kIdentityAggregation, ProvEventKind::kNameProposal},
    {12, PhaseId::kFingerprintValidation, ProvEventKind::kPhaseKingVerdict},
    {13, PhaseId::kConsensus, ProvEventKind::kPhaseKingVerdict},
    {14, PhaseId::kDiffExchange, ProvEventKind::kPhaseKingVerdict},
    {15, PhaseId::kDistribution, ProvEventKind::kNameClaim},
    {16, PhaseId::kFullVectorExchange, ProvEventKind::kNameProposal},
    // baselines (Table 1): single all-to-all exchange phase each.
    {30, PhaseId::kBaselineExchange, ProvEventKind::kNameClaim},     // naive
    {31, PhaseId::kBaselineExchange, ProvEventKind::kNameProposal},  // cht
    {40, PhaseId::kBaselineExchange, ProvEventKind::kNameProposal},  // obg
    {41, PhaseId::kBaselineExchange, ProvEventKind::kNameProposal},
    {42, PhaseId::kBaselineExchange, ProvEventKind::kNameProposal},
    {45, PhaseId::kBaselineExchange, ProvEventKind::kNameClaim},     // early
    {50, PhaseId::kBaselineExchange, ProvEventKind::kNameClaim},  // claiming
    {51, PhaseId::kBaselineExchange, ProvEventKind::kConflictRetry},
};

namespace detail {

/// The attribution rows list exactly the schema kinds, in order, each with
/// a real phase. Takes both tables so tests/wire_schema_test.cc can prove
/// it rejects planted defects (a missing row, an extra row, a swap).
constexpr bool attributions_match_schemas(
    std::span<const KindAttribution> rows,
    std::span<const sim::wire::WireSchema> schemas) {
  if (rows.size() != schemas.size()) return false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].kind != schemas[i].kind ||
        rows[i].phase == PhaseId::kUnattributed) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

static_assert(detail::attributions_match_schemas(kKindAttributions,
                                                 sim::wire::kWireSchemas),
              "obs::kKindAttributions must list the kinds of "
              "sim::wire::kWireSchemas in the same order, each with a "
              "canonical PhaseId");

/// Canonical phase attribution for `kind`. Unknown kinds — bench-local or
/// adversarial — fall to kUnattributed, exactly as an unregistered kind
/// does in Telemetry.
constexpr PhaseId canonical_phase(sim::MsgKind kind) {
  const std::size_t i = sim::wire::schema_index(kind);
  return i < sim::wire::kWireSchemaCount ? kKindAttributions[i].phase
                                         : PhaseId::kUnattributed;
}

/// Provenance event `kind`'s deliveries canonically trigger; `kind` must be
/// a shipped kind.
constexpr ProvEventKind canonical_prov_event(sim::MsgKind kind) {
  const std::size_t i = sim::wire::schema_index(kind);
  RENAMING_CHECK(i < sim::wire::kWireSchemaCount,
                 "provenance: unregistered message kind");
  return kKindAttributions[i].event;
}

}  // namespace renaming::obs
