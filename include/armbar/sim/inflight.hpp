#pragma once
// Multiset of in-flight completion times, queried by count.
//
// The contention terms of the memory model (reader contention per line,
// memory-level parallelism per core, network contention machine-wide) each
// need one number per costed operation: how many earlier transfers are
// still in flight when this one starts.  InflightSet answers that with the
// semantics "drop every entry <= at, then count the rest".

#include <cstddef>
#include <vector>

#include "armbar/util/vtime.hpp"

namespace armbar::sim {

using util::Picos;

/// In-flight completion times as an ascending queue with a head index.
/// Finishes arrive almost in order (an operation's finish is its start plus
/// a cost of a few table entries), so add() inserts from the back and
/// usually moves nothing; count_at() advances the head past the expired
/// prefix and answers size - head.  Every entry is passed by the head at
/// most once, so a query costs O(1) amortized however many transfers are
/// in flight.  The consumed prefix is dropped once it is more than half
/// of the storage, which keeps the vector's capacity across a run.
class InflightSet {
 public:
  /// Record a transfer that completes at @p f.
  void add(Picos f) {
    finish_.push_back(f);
    std::size_t i = finish_.size() - 1;
    while (i > head_ && finish_[i - 1] > f) {
      finish_[i] = finish_[i - 1];
      --i;
    }
    finish_[i] = f;
  }

  /// Drop every entry <= @p at, then return how many remain.
  int count_at(Picos at) noexcept {
    const std::size_t n = finish_.size();
    while (head_ < n && finish_[head_] <= at) ++head_;
    if (head_ * 2 > n) {
      finish_.erase(finish_.begin(),
                    finish_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return static_cast<int>(finish_.size() - head_);
  }

 private:
  std::vector<Picos> finish_;  ///< [head_, size) ascending, still counted
  std::size_t head_ = 0;       ///< first entry not yet expired
};

}  // namespace armbar::sim
