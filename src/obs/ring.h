// Bounded per-round ring shared by every obs/ recorder that keeps "the last
// K rounds": Telemetry's per-round series, the Progress heartbeat, the
// Journal records and the ShardProfile samples.
//
// A plain vector until `capacity` entries (0 = unbounded), then the oldest
// slot is overwritten in O(1). The wrapped storage is rotated; readers
// restore oldest-to-newest order once per read, never per round. Storage is
// the ring's own vector (push_back(v) / snapshot()) or, for entries that
// live inside an exported data struct (JournalData::records,
// ShardProfileData::samples), a caller-owned vector passed to
// push_back(items, v) / unrotate(items).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace renaming::obs {

template <typename T>
class RoundRing {
 public:
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return items_.size(); }

  /// Empties the ring and forgets its drop count (a new run).
  void clear() {
    items_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  void push_back(T v) { push_back(items_, std::move(v)); }

  /// Ring contents oldest to newest; entry i is round dropped() + i + 1.
  std::vector<T> snapshot() const {
    std::vector<T> out(items_);
    std::rotate(out.begin(), out.begin() + head(), out.end());
    return out;
  }

  /// Appends `v` to caller-owned `items`, or overwrites the oldest entry
  /// once full. Returns true when an entry was evicted.
  bool push_back(std::vector<T>& items, T v) {
    if (capacity_ == 0 || items.size() < capacity_) {
      items.push_back(std::move(v));
      return false;
    }
    items[head_] = std::move(v);
    head_ = head_ + 1 == items.size() ? 0 : head_ + 1;
    ++dropped_;
    return true;
  }

  /// Restores oldest-to-newest order of caller-owned `items` in place.
  void unrotate(std::vector<T>& items) {
    std::rotate(items.begin(), items.begin() + head(), items.end());
    head_ = 0;
  }

 private:
  std::ptrdiff_t head() const { return static_cast<std::ptrdiff_t>(head_); }

  std::vector<T> items_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace renaming::obs
