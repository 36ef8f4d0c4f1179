// Central declarative wire schema: the only list of shipped message kinds
// and the single source of truth for each one's name and bit layout.
//
// The paper's headline claim is subquadratic *bits* (Theorems 1.2/1.3), so
// each Message declares its wire size and the engine sums the declarations
// into RunStats/Telemetry/Journal. Before this table existed, the declared
// widths were hand-written literals scattered across the protocol files;
// one stale literal silently falsifies every BudgetAuditor gate and
// BENCH_* cell. Here each kind instead lists its named fields with
// closed-form widths parameterized by (n, namespace_size), the constexpr
// wire_bits() evaluator folds them, and:
//
//   * protocols obtain widths ONLY through wire_bits()/make_message()
//     (enforced statically by lint rule R9, scripts/protocol_lint.py);
//   * message_name() reads the same rows, so a kind cannot have a name
//     without a schema or a schema without a name; the obs layer's
//     row-parallel attribution table (obs/kind_registry.h) is
//     static_asserted to list the same kinds in the same order;
//   * BudgetAuditor cross-checks each honest run's per-kind emitted bits
//     against the closed forms at runtime (obs/budget.h), and
//     tests/wire_schema_test.cc pins every row and the equivalence per
//     protocol.
//
// Fixed vs variable kinds: most messages have a fixed field list whose
// widths depend only on the run context. The four bulk kinds (VECTOR,
// OBG_VECTOR, OBG_HALVING, EARLY_SET) ship identity sets, so their width
// is per-element: max(1, count) * ceil(log2 N), clamped at kVariableBitsCap
// to fit Message::bits. These are the Omega(n log N)-bit baselines the
// paper criticises — the schema documents them, it does not bless them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "sim/message.h"

namespace renaming::sim::wire {

/// Run parameters every closed-form width is phrased in.
struct WireContext {
  std::uint64_t n = 0;               ///< number of participants
  std::uint64_t namespace_size = 0;  ///< N, the original-identity space
};

/// Closed-form width of one named field.
enum class Width : std::uint8_t {
  kConst8,        ///< 8 bits (control/flag byte)
  kConst16,       ///< 16 bits (session + subkind control word)
  kConst61,       ///< 61 bits (m61 fingerprint, hashing/m61.h)
  kLogN,          ///< ceil(log2 n) — target-namespace values
  kLogNPlus1,     ///< ceil(log2 (n+1)) — ranks/counts including 0
  kLogNamespace,  ///< ceil(log2 N) — original identities
};

struct WireField {
  const char* name = nullptr;
  Width width = Width::kConst8;
};

inline constexpr std::size_t kMaxWireFields = 5;

/// Declared layout of one message kind. For `variable` kinds the single
/// field describes the per-element width of the shipped set.
struct WireSchema {
  MsgKind kind = 0;
  const char* name = nullptr;  ///< canonical name (sim::message_name)
  bool variable = false;
  std::size_t field_count = 0;
  WireField fields[kMaxWireFields]{};
};

/// Bulk payloads clamp here so the width fits Message::bits (uint32_t).
inline constexpr std::uint32_t kVariableBitsCap = 1u << 30;

/// Every wire kind a shipped protocol emits, ascending by kind, one row per
/// kind. Kinds are unique per protocol and every protocol draws from a
/// disjoint range (crash 1-3, byzantine 10-16, baselines 30+). Bench- and
/// test-local kinds (e.g. bench_engine's ping) are deliberately absent.
/// tests/trace_test.cc pins the kinds against the protocol Tag enums, and
/// lint rule R11 checks each row has a dispatch declaration under src/.
inline constexpr WireSchema kWireSchemas[] = {
    // crash/crash_renaming.h (Tag) — Figure 1-3 message formats.
    {1, "COMMITTEE", false, 1, {{"id", Width::kLogNamespace}}},
    {2, "STATUS", false, 5,
     {{"id", Width::kLogNamespace},
      {"interval_lo", Width::kLogN},
      {"interval_hi", Width::kLogN},
      {"depth", Width::kConst8},
      {"phase", Width::kConst8}}},
    {3, "RESPONSE", false, 5,
     {{"id", Width::kLogNamespace},
      {"interval_lo", Width::kLogN},
      {"interval_hi", Width::kLogN},
      {"depth", Width::kConst8},
      {"phase", Width::kConst8}}},
    // byzantine/byz_renaming.h (Tag). The four control kinds (ELECT,
    // ID_REPORT, CONSENSUS, DIFF) share one layout: an identity-sized
    // value plus a 16-bit session/subkind control word.
    {10, "ELECT", false, 2,
     {{"id", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {11, "ID_REPORT", false, 2,
     {{"id", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {12, "VALIDATOR", false, 3,
     {{"fingerprint", Width::kConst61},
      {"count", Width::kLogNPlus1},
      {"control", Width::kConst16}}},
    {13, "CONSENSUS", false, 2,
     {{"value", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {14, "DIFF", false, 2,
     {{"payload", Width::kLogNamespace}, {"control", Width::kConst16}}},
    {15, "NEW", false, 2,
     {{"rank", Width::kLogNPlus1}, {"control", Width::kConst8}}},
    {16, "VECTOR", true, 1, {{"identity", Width::kLogNamespace}}},
    // baselines (Table 1).
    {30, "NAIVE_ID", false, 1, {{"id", Width::kLogNamespace}}},
    {31, "CHT_STATUS", false, 3,
     {{"id", Width::kLogNamespace},
      {"interval_lo", Width::kLogN},
      {"interval_hi", Width::kLogN}}},
    {40, "OBG_ANNOUNCE", false, 1, {{"id", Width::kLogNamespace}}},
    {41, "OBG_VECTOR", true, 1, {{"identity", Width::kLogNamespace}}},
    {42, "OBG_HALVING", true, 1, {{"identity", Width::kLogNamespace}}},
    {45, "EARLY_SET", true, 1, {{"identity", Width::kLogNamespace}}},
    {50, "CLAIM", false, 2,
     {{"id", Width::kLogNamespace}, {"slot", Width::kLogN}}},
    {51, "OWNED", false, 2,
     {{"id", Width::kLogNamespace}, {"slot", Width::kLogN}}},
};
inline constexpr std::size_t kWireSchemaCount = std::size(kWireSchemas);

/// Row of `kind` in kWireSchemas, or kWireSchemaCount for unregistered
/// (bench-/test-local) kinds. An index, not a pointer: g++ 12 with
/// -fsanitize=undefined cannot constant-evaluate a comparison of a table
/// address with nullptr, and this lookup runs inside static_asserts.
constexpr std::size_t schema_index(MsgKind kind) {
  for (std::size_t i = 0; i < kWireSchemaCount; ++i) {
    if (kWireSchemas[i].kind == kind) return i;
  }
  return kWireSchemaCount;
}

/// Schema lookup for kinds that must be registered.
constexpr const WireSchema& schema_of(MsgKind kind) {
  const std::size_t i = schema_index(kind);
  RENAMING_CHECK(i < kWireSchemaCount,
                 "wire_schema: unregistered message kind");
  return kWireSchemas[i];
}

/// Closed-form width of one field.
constexpr std::uint32_t width_bits(Width w, const WireContext& ctx) {
  switch (w) {
    case Width::kConst8: return 8;
    case Width::kConst16: return 16;
    case Width::kConst61: return 61;
    case Width::kLogN: return ceil_log2(ctx.n);
    case Width::kLogNPlus1: return ceil_log2(ctx.n + 1);
    case Width::kLogNamespace: return ceil_log2(ctx.namespace_size);
  }
  RENAMING_CHECK(false, "wire_schema: unknown field width");
  return 0;
}

/// Declared wire size of a fixed-layout kind: the sum of its field widths.
constexpr std::uint32_t wire_bits(MsgKind kind, const WireContext& ctx) {
  const WireSchema& s = schema_of(kind);
  RENAMING_CHECK(!s.variable,
                 "variable-width kind needs the payload-count overload");
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < s.field_count; ++i) {
    bits += width_bits(s.fields[i].width, ctx);
  }
  return static_cast<std::uint32_t>(bits);
}

/// Declared wire size of a variable-width (bulk identity-set) kind:
/// max(1, count) elements at the per-element width, clamped to the cap.
/// The max(1, ...) floor keeps Message::bits > 0 for empty sets.
constexpr std::uint32_t wire_bits(MsgKind kind, const WireContext& ctx,
                                  std::uint64_t payload_count) {
  const WireSchema& s = schema_of(kind);
  RENAMING_CHECK(s.variable,
                 "fixed-layout kind does not take a payload count");
  const std::uint64_t per = width_bits(s.fields[0].width, ctx);
  const std::uint64_t total = std::max<std::uint64_t>(1, payload_count) * per;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(total, kVariableBitsCap));
}

/// Schema-deriving builder for fixed-layout kinds: the declared width
/// flows from the table, never from a call-site literal (lint rule R9).
template <typename... Words>
Message make_message(MsgKind kind, const WireContext& ctx, Words... words) {
  return sim::make_message(kind, wire_bits(kind, ctx), words...);
}

/// Schema-deriving builder for variable-width kinds: the width follows the
/// blob's element count.
template <typename... Words>
Message make_blob_message(
    MsgKind kind, const WireContext& ctx,
    std::shared_ptr<const std::vector<std::uint64_t>> blob, Words... words) {
  RENAMING_CHECK(blob != nullptr, "blob message without a blob");
  Message m =
      sim::make_message(kind, wire_bits(kind, ctx, blob->size()), words...);
  m.blob = std::move(blob);
  return m;
}

// --- adversarial probe widths ---------------------------------------------
// Byzantine strategies (byzantine/strategies.h) forge messages whose
// declared width deliberately does NOT follow the honest schema — the
// attacker pays for whatever it puts on the wire (docs/MODEL.md
// "Accounting"). The widths are named here so R9 can still insist every
// bits argument flows from this header, and so the golden trace pins
// record exactly these values.

/// LyingMember's premature fake NEW volley: a bare probe rank, smaller
/// than any honest NEW the schema admits.
inline constexpr std::uint32_t kForgedNewProbeBits = 16;

/// Spoofer's forged ELECT/ID_REPORT probes: a flat 32-bit claim, sent only
/// to show the authentication layer is load-bearing.
inline constexpr std::uint32_t kSpoofProbeBits = 32;

// --- table guards ---------------------------------------------------------
// Each checker takes its table as a parameter, so tests/wire_schema_test.cc
// can prove it rejects planted defects.

namespace detail {

/// Ascending unique kinds, a name per row, 1..kMaxWireFields named fields,
/// and exactly one (per-element) field for variable kinds.
constexpr bool schemas_well_formed(std::span<const WireSchema> table) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    const WireSchema& s = table[i];
    if (i > 0 && table[i - 1].kind >= s.kind) return false;
    if (s.name == nullptr) return false;
    if (s.field_count == 0 || s.field_count > kMaxWireFields) return false;
    if (s.variable && s.field_count != 1) return false;
    for (std::size_t j = 0; j < s.field_count; ++j) {
      if (s.fields[j].name == nullptr) return false;
    }
  }
  return true;
}

constexpr bool same_layout(const WireSchema& a, const WireSchema& b) {
  if (a.variable != b.variable || a.field_count != b.field_count) {
    return false;
  }
  for (std::size_t j = 0; j < a.field_count; ++j) {
    if (a.fields[j].width != b.fields[j].width) return false;
  }
  return true;
}

/// ELECT, ID_REPORT, CONSENSUS and DIFF are one wire family (the byz
/// control message); their widths must never drift apart, because the host
/// protocol reuses one cached width for all four.
constexpr bool control_kinds_share_layout(std::span<const WireSchema> table) {
  constexpr MsgKind kFamily[] = {10, 11, 13, 14};
  std::size_t found = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (std::find(std::begin(kFamily), std::end(kFamily), table[i].kind) ==
        std::end(kFamily)) {
      continue;
    }
    if (found++ == 0) {
      first = i;
    } else if (!same_layout(table[first], table[i])) {
      return false;
    }
  }
  return found == std::size(kFamily);
}

}  // namespace detail

static_assert(detail::schemas_well_formed(kWireSchemas),
              "kWireSchemas must be ascending by kind with a name and "
              "well-formed field list per row");
static_assert(detail::control_kinds_share_layout(kWireSchemas),
              "the byz control kinds (ELECT/ID_REPORT/CONSENSUS/DIFF) must "
              "share one field layout");

// Closed-form pins at a concrete context (n = 48, N = 5*48*48): these are
// the exact widths the pre-schema literals produced, and the golden trace
// and journal byte pins depend on them. A schema edit that moves one of
// these values is changing the wire protocol, not refactoring it.
namespace detail {
inline constexpr WireContext kPinCtx{48, 5ull * 48 * 48};
}  // namespace detail
static_assert(wire_bits(1, detail::kPinCtx) == 14);    // ceil_log2(N)
static_assert(wire_bits(2, detail::kPinCtx) == 42);    // logN + 2 logn + 16
static_assert(wire_bits(3, detail::kPinCtx) == 42);
static_assert(wire_bits(10, detail::kPinCtx) == 30);   // logN + 16
static_assert(wire_bits(12, detail::kPinCtx) == 83);   // 61 + log(n+1) + 16
static_assert(wire_bits(15, detail::kPinCtx) == 14);   // log(n+1) + 8
static_assert(wire_bits(16, detail::kPinCtx, 0) == 14);    // max(1,.) floor
static_assert(wire_bits(16, detail::kPinCtx, 10) == 140);  // 10 * logN
static_assert(wire_bits(31, detail::kPinCtx) == 26);   // logN + 2 logn
static_assert(wire_bits(50, detail::kPinCtx) == 20);   // logN + logn

}  // namespace renaming::sim::wire

namespace renaming::sim {

/// Stable wire-protocol name for `kind` (its kWireSchemas row); kinds
/// outside the table render as "?" rather than failing.
constexpr const char* message_name(MsgKind kind) {
  const std::size_t i = wire::schema_index(kind);
  return i < wire::kWireSchemaCount ? wire::kWireSchemas[i].name : "?";
}

}  // namespace renaming::sim
