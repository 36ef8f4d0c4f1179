// The benchmark's hooks into the simulator's public interfaces: one node
// wrapper and one crash-adversary wrapper, shared by the end-to-end runs
// (which stamp the end of set-up at the first callback) and the traced run
// (which times every callback into a ledger). README.md, "Metrics".
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench.h"
#include "byzantine/byz_renaming.h"
#include "sim/adversary.h"
#include "sim/node.h"

namespace perfbench {

/// Thrown by a stopping SetupClock: set-up-only repetitions end the run at
/// its first callback by unwinding out of the entry point. Every callback
/// that can throw runs on the calling thread (the adversary sweep, or a
/// serial send phase), never inside a worker-pool task.
struct SetupComplete {};

/// Marks the first callback a hook receives: the end of set-up, and the
/// start of the rounds. Not thread-safe; only hooks called on the calling
/// thread carry one.
class SetupClock {
 public:
  explicit SetupClock(bool stop_at_first_callback)
      : stop_(stop_at_first_callback), start_(clock_ns()) {}

  void first_callback() {
    if (stamped_) return;
    stamped_ = true;
    at_ = clock_ns();
    cpu_at_ = cpu_s();
    if (stop_) throw SetupComplete{};
  }

  /// Seconds from construction to the first callback.
  double setup_s() const { return static_cast<double>(at_ - start_) * 1e-9; }
  std::int64_t at_ns() const { return at_; }
  double cpu_at() const { return cpu_at_; }

 private:
  bool stop_;
  bool stamped_ = false;
  std::int64_t start_;
  std::int64_t at_ = 0;
  double cpu_at_ = 0.0;
};

/// Where a timed callback's time is charged.
enum Bucket : unsigned {
  kAnnounce, kStatus, kResponse,  // crash subrounds 1..3
  kElect, kIdReport, kValidator, kConsensus, kDiff, kNew,  // byz wire tags
  kStrategy,                      // Byzantine strategy nodes
  kBucketCount,
};

enum class Charge { kCrashSubround, kByzTag, kStrategy };

inline unsigned bucket_of_tag(renaming::sim::MsgKind kind, unsigned fallback) {
  using Tag = renaming::byzantine::Tag;
  switch (static_cast<Tag>(kind)) {
    case Tag::kElect: return kElect;
    case Tag::kIdReport: return kIdReport;
    case Tag::kValidator: return kValidator;
    case Tag::kVector: return kValidator;
    case Tag::kConsensus: return kConsensus;
    case Tag::kDiff: return kDiff;
    case Tag::kNew: return kNew;
  }
  return fallback;
}

/// Per-node callback ledger. Each timed node owns one, so shard-parallel
/// callbacks never write a shared counter.
struct Ledger {
  std::int64_t send_ns = 0;
  std::int64_t receive_ns = 0;
  std::int64_t first_ns = 0;  ///< start of the node's first callback
  std::uint64_t send_calls = 0;
  std::uint64_t receive_calls = 0;
  std::array<std::int64_t, kBucketCount> bucket_ns{};
  std::array<std::uint64_t, kBucketCount> bucket_calls{};

  void add(const Ledger& o) {
    send_ns += o.send_ns;
    receive_ns += o.receive_ns;
    send_calls += o.send_calls;
    receive_calls += o.receive_calls;
    for (unsigned b = 0; b < kBucketCount; ++b) {
      bucket_ns[b] += o.bucket_ns[b];
      bucket_calls[b] += o.bucket_calls[b];
    }
    if (o.first_ns != 0 && (first_ns == 0 || o.first_ns < first_ns)) {
      first_ns = o.first_ns;
    }
  }
};

/// Node wrapper. End to end it owns its node and stamps a SetupClock at
/// the node's first send. Traced, it borrows its node and times every
/// callback into its ledger: a Byzantine honest node is charged by the
/// wire tag its callback sends, else receives, and a callback that does
/// neither stays in the node's previous bucket.
class HookedNode final : public renaming::sim::Node {
 public:
  HookedNode(std::unique_ptr<renaming::sim::Node> inner, SetupClock* clock)
      : owned_(std::move(inner)), inner_(owned_.get()), clock_(clock) {}
  HookedNode(renaming::sim::Node* inner, Charge charge, unsigned initial)
      : inner_(inner), timed_(true), charge_(charge), last_(initial) {}

  void send(renaming::Round round, renaming::sim::Outbox& out) override {
    if (clock_ != nullptr) clock_->first_callback();
    if (!timed_) {
      inner_->send(round, out);
      return;
    }
    const std::int64_t t0 = clock_ns();
    inner_->send(round, out);
    const std::int64_t dt = clock_ns() - t0;
    ledger_.send_ns += dt;
    ++ledger_.send_calls;
    const auto& sent = out.entries();
    note(round, t0, dt, sent.empty() ? 0 : sent.front().second.kind);
  }

  void receive(renaming::Round round,
               renaming::sim::InboxView inbox) override {
    if (!timed_) {
      inner_->receive(round, inbox);
      return;
    }
    const std::int64_t t0 = clock_ns();
    inner_->receive(round, inbox);
    const std::int64_t dt = clock_ns() - t0;
    ledger_.receive_ns += dt;
    ++ledger_.receive_calls;
    note(round, t0, dt, inbox.empty() ? 0 : inbox[0].kind);
  }

  bool done() const override { return inner_->done(); }
  bool idle() const override { return inner_->idle(); }

  const Ledger& ledger() const { return ledger_; }

 private:
  void note(renaming::Round round, std::int64_t t0, std::int64_t dt,
            renaming::sim::MsgKind kind) {
    if (ledger_.first_ns == 0) ledger_.first_ns = t0;
    switch (charge_) {
      case Charge::kCrashSubround: last_ = kAnnounce + (round - 1) % 3; break;
      case Charge::kByzTag: last_ = bucket_of_tag(kind, last_); break;
      case Charge::kStrategy: break;
    }
    ledger_.bucket_ns[last_] += dt;
    ++ledger_.bucket_calls[last_];
  }

  std::unique_ptr<renaming::sim::Node> owned_;
  renaming::sim::Node* inner_;
  SetupClock* clock_ = nullptr;
  bool timed_ = false;
  Charge charge_ = Charge::kStrategy;
  unsigned last_ = kStrategy;
  Ledger ledger_;
};

/// Crash-adversary wrapper: stamps an optional SetupClock at the engine's
/// first adversary call, times every call, and, given the unwrapped nodes,
/// hands those to the adversary, so a protocol-aware one (CommitteeHunter
/// finds committee members by dynamic_cast) sees the real node classes.
class HookedAdversary final : public renaming::sim::CrashAdversary {
 public:
  using Nodes = std::vector<std::unique_ptr<renaming::sim::Node>>;

  HookedAdversary(std::unique_ptr<renaming::sim::CrashAdversary> inner,
                  SetupClock* clock, const Nodes* real_nodes = nullptr)
      : inner_(std::move(inner)), clock_(clock), real_nodes_(real_nodes) {}

  std::vector<renaming::sim::CrashOrder> decide(
      const renaming::sim::AdversaryView& view) override {
    if (clock_ != nullptr) clock_->first_callback();
    const std::int64_t t0 = clock_ns();
    if (first_ns_ == 0) first_ns_ = t0;
    renaming::sim::AdversaryView real = view;
    if (real_nodes_ != nullptr) real.nodes = real_nodes_;
    std::vector<renaming::sim::CrashOrder> orders = inner_->decide(real);
    ns_ += clock_ns() - t0;
    return orders;
  }
  std::uint64_t budget() const override { return inner_->budget(); }

  std::int64_t ns() const { return ns_; }
  std::int64_t first_ns() const { return first_ns_; }

 private:
  std::unique_ptr<renaming::sim::CrashAdversary> inner_;
  SetupClock* clock_;
  const Nodes* real_nodes_;
  std::int64_t ns_ = 0;
  std::int64_t first_ns_ = 0;
};

}  // namespace perfbench
