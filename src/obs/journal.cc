#include "obs/journal.h"

#include <istream>
#include <ostream>

#include "obs/codec.h"
#include "sim/wire_schema.h"

namespace renaming::obs {

JournalKindCount& Journal::kind_slot(sim::MsgKind kind) {
  // A round touches a handful of kinds at most; a sorted vector with a
  // linear scan beats any map here and keeps the export order canonical.
  std::size_t i = 0;
  while (i < open_.kinds.size() && open_.kinds[i].kind < kind) ++i;
  if (i == open_.kinds.size() || open_.kinds[i].kind != kind) {
    open_.kinds.insert(open_.kinds.begin() + static_cast<std::ptrdiff_t>(i),
                       JournalKindCount{kind, 0, 0});
  }
  return open_.kinds[i];
}

void Journal::mix_entry(const sim::Message& m, std::uint64_t dest_code,
                        std::uint64_t copies) {
  // Everything observable about the logical entry feeds the fingerprint;
  // the destination descriptor distinguishes a broadcast from the
  // equivalent unicast fan-out (they are different executions even when
  // the copies coincide, and the multicast list fold follows separately).
  // The entry's words go through the cheap WordFold and the polynomial
  // digest absorbs one field element per entry: the chain keeps the
  // cross-entry order sensitivity, the fold keeps the per-word cost at a
  // single 64-bit multiply (<2% hot-path budget, docs/PERFORMANCE.md §8).
  hashing::WordFold fold;
  fold.mix(dest_code);
  fold.mix(copies);
  fold.mix((static_cast<std::uint64_t>(m.kind) << 32) | m.bits);
  fold.mix((static_cast<std::uint64_t>(m.sender) << 32) | m.claimed_sender);
  fold.mix(m.nwords);
  for (std::uint8_t i = 0; i < m.nwords; ++i) fold.mix(m.w[i]);
  if (m.blob != nullptr) {
    fold.mix(m.blob->size() + 1);  // +1 distinguishes empty from absent
    for (std::uint64_t w : *m.blob) fold.mix(w);
  } else {
    fold.mix(0);
  }
  digest_.mix_digest(fold.value());

  JournalKindCount& slot = kind_slot(m.kind);
  const std::uint64_t total = static_cast<std::uint64_t>(m.bits) * copies;
  slot.messages += copies;
  slot.bits += total;
  open_.messages += copies;
  open_.bits += total;
  if (m.bits > open_.max_message_bits) open_.max_message_bits = m.bits;
  if (m.spoofed()) {
    open_.events.push_back(
        {JournalEvent::Kind::kSpoofRejected, m.sender, m.kind});
    data_.spoofs_rejected += copies;
  }
}

void Journal::on_round_end(Round round) {
  open_.round = round;
  open_.fingerprint = digest_.value();
  data_.total_messages += open_.messages;
  data_.total_bits += open_.bits;
  if (open_.max_message_bits > data_.max_message_bits) {
    data_.max_message_bits = open_.max_message_bits;
  }
  if (ring_.push_back(data_.records, std::move(open_))) {
    ++data_.dropped_rounds;
  }
  open_ = JournalRound{};
}

// --- binary format ----------------------------------------------------------
//
// "RNMJ" v1 in the obs/codec.h conventions: fixed-width little-endian
// fields in the exact order of the struct definitions.

constexpr CodecFormat kJournalFormat = {
    {'R', 'N', 'M', 'J'}, 1, "not a renaming journal (bad magic)",
    "unsupported journal version"};

void write_journal_binary(std::ostream& out, const JournalData& data) {
  write_header(out, kJournalFormat, data.algorithm);
  put_u64(out, data.n);
  put_u64(out, data.f);
  put_u64(out, data.total_messages);
  put_u64(out, data.total_bits);
  put_u64(out, data.rounds);
  put_u64(out, data.crashes);
  put_u64(out, data.spoofs_rejected);
  put_u32(out, data.max_message_bits);
  put_u64(out, data.dropped_rounds);
  put_u64(out, data.records.size());
  for (const JournalRound& r : data.records) {
    put_u64(out, r.round);
    put_u64(out, r.fingerprint);
    put_u64(out, r.messages);
    put_u64(out, r.bits);
    put_u32(out, r.max_message_bits);
    put_u32(out, r.active_senders);
    put_u32(out, static_cast<std::uint32_t>(r.kinds.size()));
    for (const JournalKindCount& k : r.kinds) {
      put_u16(out, k.kind);
      put_u64(out, k.messages);
      put_u64(out, k.bits);
    }
    put_u32(out, static_cast<std::uint32_t>(r.events.size()));
    for (const JournalEvent& e : r.events) {
      put_u8(out, static_cast<std::uint8_t>(e.kind));
      put_u32(out, e.node);
      put_u16(out, e.msg_kind);
    }
  }
}

bool read_journal_binary(std::istream& in, JournalData* data,
                         std::string* error) {
  JournalData out;
  if (!read_header(in, kJournalFormat, &out.algorithm, error)) return false;
  std::uint64_t record_count = 0;
  if (!get_bytes(in, &out.n) || !get_bytes(in, &out.f) ||
      !get_bytes(in, &out.total_messages) || !get_bytes(in, &out.total_bits) ||
      !get_bytes(in, &out.rounds) || !get_bytes(in, &out.crashes) ||
      !get_bytes(in, &out.spoofs_rejected) ||
      !get_bytes(in, &out.max_message_bits) ||
      !get_bytes(in, &out.dropped_rounds) || !get_bytes(in, &record_count)) {
    return fail(error, "truncated header");
  }
  // Grow incrementally: a corrupt count must not turn into an allocation.
  for (std::uint64_t i = 0; i < record_count; ++i) {
    JournalRound r;
    std::uint64_t round64 = 0;
    std::uint32_t kind_count = 0;
    std::uint32_t event_count = 0;
    if (!get_bytes(in, &round64) || !get_bytes(in, &r.fingerprint) ||
        !get_bytes(in, &r.messages) || !get_bytes(in, &r.bits) ||
        !get_bytes(in, &r.max_message_bits) ||
        !get_bytes(in, &r.active_senders) || !get_bytes(in, &kind_count)) {
      return fail(error, "truncated record");
    }
    r.round = static_cast<Round>(round64);
    for (std::uint32_t k = 0; k < kind_count; ++k) {
      JournalKindCount kc;
      if (!get_bytes(in, &kc.kind) || !get_bytes(in, &kc.messages) ||
          !get_bytes(in, &kc.bits)) {
        return fail(error, "truncated kind table");
      }
      r.kinds.push_back(kc);
    }
    if (!get_bytes(in, &event_count)) return fail(error, "truncated record");
    for (std::uint32_t e = 0; e < event_count; ++e) {
      std::uint8_t ekind = 0;
      JournalEvent ev;
      if (!get_bytes(in, &ekind) || !get_bytes(in, &ev.node) ||
          !get_bytes(in, &ev.msg_kind)) {
        return fail(error, "truncated event table");
      }
      if (ekind > 1) return fail(error, "unknown event kind");
      ev.kind = static_cast<JournalEvent::Kind>(ekind);
      r.events.push_back(ev);
    }
    out.records.push_back(std::move(r));
  }
  *data = std::move(out);
  return true;
}

void write_journal_jsonl(std::ostream& out, const JournalData& data) {
  out << "{\"schema\":\"renaming-journal-v1\",\"algorithm\":\""
      << data.algorithm << "\",\"n\":" << data.n << ",\"f\":" << data.f
      << ",\"total_messages\":" << data.total_messages
      << ",\"total_bits\":" << data.total_bits
      << ",\"rounds\":" << data.rounds << ",\"crashes\":" << data.crashes
      << ",\"spoofs_rejected\":" << data.spoofs_rejected
      << ",\"max_message_bits\":" << data.max_message_bits
      << ",\"dropped_rounds\":" << data.dropped_rounds
      << ",\"records\":" << data.records.size() << "}\n";
  for (const JournalRound& r : data.records) {
    out << "{\"round\":" << r.round << ",\"fingerprint\":" << r.fingerprint
        << ",\"messages\":" << r.messages << ",\"bits\":" << r.bits
        << ",\"max_message_bits\":" << r.max_message_bits
        << ",\"active_senders\":" << r.active_senders << ",\"kinds\":[";
    bool first = true;
    for (const JournalKindCount& k : r.kinds) {
      if (!first) out << ",";
      first = false;
      out << "{\"kind\":" << k.kind << ",\"name\":\""
          << sim::message_name(k.kind) << "\",\"messages\":" << k.messages
          << ",\"bits\":" << k.bits << "}";
    }
    out << "],\"events\":[";
    first = true;
    for (const JournalEvent& e : r.events) {
      if (!first) out << ",";
      first = false;
      if (e.kind == JournalEvent::Kind::kCrash) {
        out << "{\"type\":\"crash\",\"node\":" << e.node << "}";
      } else {
        out << "{\"type\":\"spoof-rejected\",\"node\":" << e.node
            << ",\"kind\":" << e.msg_kind << "}";
      }
    }
    out << "]}\n";
  }
}

}  // namespace renaming::obs
