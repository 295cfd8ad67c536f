#pragma once
// Machine topology models.
//
// The paper's whole analysis is driven by a small set of per-machine
// parameters: the local cache hit latency ε, the layered core-to-core
// communication latencies L_0..L_k (Tables I-III), the logical cluster
// size N_c, the coherence granule size, the RFO weight α_i and the reader
// contention coefficient c (Section III).  A Machine value carries exactly
// those parameters plus a pairwise latency lookup derived from the
// machine's cluster/panel/socket geometry.
//
// Latencies are stored both in ns (for reporting, as in the paper) and as
// integer picoseconds (for the exact discrete-event simulator).  The paper
// prices a core pair by its layer alone, so the pairwise data is one byte
// per pair (layer + 1, 0 on the diagonal) plus two per-layer arrays of
// precomputed picosecond costs: a simulator lookup is a byte load and a
// load from a table of a few entries, with no float conversion.

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "armbar/util/vtime.hpp"

namespace armbar::topo {

/// One communication-latency layer (a row of the paper's Tables I-III).
struct Layer {
  std::string name;  ///< e.g. "within a core group", "panel 0-2"
  double ns = 0.0;   ///< measured latency in nanoseconds
};

/// Immutable description of one evaluation platform.
class Machine {
 public:
  /// Build from explicit parameters.  @p layer_of_pair must hold
  /// num_cores*num_cores entries (row-major); diagonal entries are ignored
  /// (same-core accesses cost epsilon).  Validates shape and ranges.
  /// @param mlp_delay_ns response-delivery serialization: each additional
  ///        cache miss a core has in flight delays the next response by
  ///        this much (bounds the memory-level parallelism of a core
  ///        polling several remote flags at once).
  /// @param net_contention_ns machine-wide network queuing: each other
  ///        remote transfer in flight adds this much to a transfer (models
  ///        on-chip interconnect saturation under all-pairs traffic).
  Machine(std::string name, int num_cores, double epsilon_ns, int cluster_size,
          int cacheline_bytes, double alpha, double contention_ns,
          std::vector<Layer> layers, std::vector<std::int8_t> layer_of_pair,
          double mlp_delay_ns = 5.0, double net_contention_ns = 0.0);

  const std::string& name() const noexcept { return name_; }
  int num_cores() const noexcept { return num_cores_; }

  /// ε — local cache access latency in ns.
  double epsilon_ns() const noexcept { return epsilon_ns_; }

  /// N_c — number of cores in a logical core cluster (4 on Phytium 2000+
  /// and Kunpeng920, 32 on ThunderX2 per Section III-A).
  int cluster_size() const noexcept { return cluster_size_; }

  /// Coherence granule in bytes (effective destructive-interference size).
  int cacheline_bytes() const noexcept { return cacheline_bytes_; }

  /// α — RFO (read-for-ownership) cost weight, 0 <= α <= 1 (Section III-B).
  double alpha() const noexcept { return alpha_; }

  /// c — per-extra-concurrent-reader contention cost in ns (eq. 3).
  double contention_ns() const noexcept { return contention_ns_; }

  /// Per-extra-in-flight-miss delivery delay of one core, in ns.
  double mlp_delay_ns() const noexcept { return mlp_delay_ns_; }
  util::Picos mlp_delay_ps() const noexcept { return mlp_delay_ps_; }

  /// Machine-wide per-extra-in-flight-transfer queuing delay, in ns.
  double net_contention_ns() const noexcept { return net_contention_ns_; }
  util::Picos net_contention_ps() const noexcept { return net_contention_ps_; }

  int num_layers() const noexcept { return static_cast<int>(layers_.size()); }
  const Layer& layer_info(int i) const { return layers_.at(static_cast<std::size_t>(i)); }

  /// Layer index of the communication between two distinct cores
  /// (0 = cheapest remote layer).  Returns -1 when a == b (local access).
  int layer(int core_a, int core_b) const;

  /// Communication latency between two cores in ns (ε when a == b).
  double comm_ns(int core_a, int core_b) const;

  /// Same, in integer picoseconds.
  util::Picos comm_ps(int core_a, int core_b) const;

  /// Latency of layer @p i in integer picoseconds.
  util::Picos layer_ps(int i) const;
  util::Picos epsilon_ps() const noexcept { return epsilon_ps_; }
  util::Picos contention_ps() const noexcept { return contention_ps_; }

  // -- unchecked hot-path accessors (simulator inner loop) ------------------
  // A byte load from the shared pair table and a load from a per-layer
  // array; core indices must already be validated (the simulator checks
  // them at the operation boundary).
  //
  // The comm entry fuses latency and layer into one 64-bit value (low 48
  // bits: picoseconds; high bits: layer index + 1, so the diagonal's "-1"
  // encodes as 0): the simulator needs both on every remote transfer.

  static constexpr unsigned kCommLayerShift = 48;
  static constexpr std::uint64_t kCommPsMask =
      (std::uint64_t{1} << kCommLayerShift) - 1;

  /// Fused comm entry of a core pair; decode with entry_ps()/entry_layer().
  std::uint64_t comm_entry_fast(int core_a, int core_b) const noexcept {
    return comm_of_code_[pair_code_fast(core_a, core_b)];
  }

  static util::Picos entry_ps(std::uint64_t entry) noexcept {
    return entry & kCommPsMask;
  }
  static int entry_layer(std::uint64_t entry) noexcept {
    return static_cast<int>(entry >> kCommLayerShift) - 1;
  }

  /// comm_ps without range checks.
  util::Picos comm_ps_fast(int core_a, int core_b) const noexcept {
    return entry_ps(comm_entry_fast(core_a, core_b));
  }

  /// α·comm_ps (the per-copy RFO invalidation cost), precomputed with the
  /// exact same rounding as static_cast<Picos>(alpha * comm_ps).
  util::Picos rfo_ps_fast(int core_a, int core_b) const noexcept {
    return rfo_of_code_[pair_code_fast(core_a, core_b)];
  }

  /// layer() without range checks; -1 when a == b.
  int layer_fast(int core_a, int core_b) const noexcept {
    return static_cast<int>(pair_code_fast(core_a, core_b)) - 1;
  }

  /// The shared pair table, row-major [a * num_cores + b]: layer + 1 of
  /// each core pair, 0 on the diagonal.  Copies of a Machine share it.
  std::span<const std::uint8_t> pair_codes() const noexcept {
    return {pair_code_, static_cast<std::size_t>(num_cores_) *
                            static_cast<std::size_t>(num_cores_)};
  }

  /// Index of the logical cluster containing @p core.
  int cluster_of(int core) const { return core / cluster_size_; }

  /// Number of logical clusters.
  int num_clusters() const {
    return (num_cores_ + cluster_size_ - 1) / cluster_size_;
  }

  /// Mean latency of the remote layers, weighted uniformly; a convenient
  /// scalar "L" for back-of-envelope model evaluation.
  double mean_remote_ns() const;

 private:
  std::string name_;
  int num_cores_;
  double epsilon_ns_;
  int cluster_size_;
  int cacheline_bytes_;
  double alpha_;
  double contention_ns_;
  double mlp_delay_ns_;
  double net_contention_ns_;
  std::vector<Layer> layers_;

  // Integer-picosecond caches, built once in the constructor.
  util::Picos epsilon_ps_ = 0;
  util::Picos contention_ps_ = 0;
  util::Picos mlp_delay_ps_ = 0;
  util::Picos net_contention_ps_ = 0;

  std::uint8_t pair_code_fast(int core_a, int core_b) const noexcept {
    assert(core_a >= 0 && core_a < num_cores_ && core_b >= 0 &&
           core_b < num_cores_);
    return pair_code_[static_cast<std::size_t>(core_a) *
                          static_cast<std::size_t>(num_cores_) +
                      static_cast<std::size_t>(core_b)];
  }

  /// Pair table plus the per-code cost arrays (code = layer + 1, code 0 =
  /// the local ε access).  Shared and immutable: the simulator copies its
  /// Machine per run, and sharing makes that copy O(1) in the core count.
  struct PairTable {
    std::vector<std::uint8_t> code;        ///< num_cores² pair codes
    std::vector<std::uint64_t> comm;       ///< per code: fused ps | code
    std::vector<util::Picos> rfo;          ///< per code: α-weighted ps
  };
  std::shared_ptr<const PairTable> pairs_;
  // Raw views into *pairs_ for the hot path (valid in every copy: the
  // shared table outlives each Machine that points into it).
  const std::uint8_t* pair_code_ = nullptr;
  const std::uint64_t* comm_of_code_ = nullptr;
  const util::Picos* rfo_of_code_ = nullptr;
};

}  // namespace armbar::topo
