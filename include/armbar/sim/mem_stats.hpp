#pragma once
// Operation counters of the simulated memory system.
//
// One MemStats is the whole memory system's count on the plain path
// (MemSystem::stats()); a tracer holds one per barrier phase, which the
// traced path counts into instead (Tracer::PhaseOps), so the per-phase
// counts sum to the run's totals by construction.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace armbar::sim {

/// Aggregate operation counters (whole memory system, or one phase).
struct MemStats {
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t local_writes = 0;   ///< writer already held the line
  std::uint64_t remote_writes = 0;  ///< writer had to fetch the line
  std::uint64_t rmws = 0;
  std::uint64_t invalidations = 0;  ///< copies invalidated by writes/rmws
  std::uint64_t poll_reads = 0;     ///< waiter re-reads triggered by writes
  /// Remote transfers whose source/destination crossed each layer; indexed
  /// by machine layer.
  std::vector<std::uint64_t> layer_transfers;

  /// Field-wise sum (the layer histogram grows to the longer of the two).
  MemStats& operator+=(const MemStats& o) {
    local_reads += o.local_reads;
    remote_reads += o.remote_reads;
    local_writes += o.local_writes;
    remote_writes += o.remote_writes;
    rmws += o.rmws;
    invalidations += o.invalidations;
    poll_reads += o.poll_reads;
    if (layer_transfers.size() < o.layer_transfers.size())
      layer_transfers.resize(o.layer_transfers.size(), 0);
    for (std::size_t l = 0; l < o.layer_transfers.size(); ++l)
      layer_transfers[l] += o.layer_transfers[l];
    return *this;
  }

  /// Field-wise difference; @p o must be an earlier snapshot of these
  /// counters (every field of @p o <= this one's).
  MemStats& operator-=(const MemStats& o) {
    local_reads -= o.local_reads;
    remote_reads -= o.remote_reads;
    local_writes -= o.local_writes;
    remote_writes -= o.remote_writes;
    rmws -= o.rmws;
    invalidations -= o.invalidations;
    poll_reads -= o.poll_reads;
    for (std::size_t l = 0;
         l < o.layer_transfers.size() && l < layer_transfers.size(); ++l)
      layer_transfers[l] -= o.layer_transfers[l];
    return *this;
  }
};

}  // namespace armbar::sim
