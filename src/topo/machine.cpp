#include "armbar/topo/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace armbar::topo {

Machine::Machine(std::string name, int num_cores, double epsilon_ns,
                 int cluster_size, int cacheline_bytes, double alpha,
                 double contention_ns, std::vector<Layer> layers,
                 std::vector<std::int8_t> layer_of_pair, double mlp_delay_ns,
                 double net_contention_ns)
    : name_(std::move(name)),
      num_cores_(num_cores),
      epsilon_ns_(epsilon_ns),
      cluster_size_(cluster_size),
      cacheline_bytes_(cacheline_bytes),
      alpha_(alpha),
      contention_ns_(contention_ns),
      mlp_delay_ns_(mlp_delay_ns),
      net_contention_ns_(net_contention_ns),
      layers_(std::move(layers)) {
  if (num_cores_ <= 0) throw std::invalid_argument("Machine: num_cores must be > 0");
  if (cluster_size_ <= 0 || cluster_size_ > num_cores_)
    throw std::invalid_argument("Machine: cluster_size out of range");
  if (epsilon_ns_ <= 0.0) throw std::invalid_argument("Machine: epsilon must be > 0");
  if (alpha_ < 0.0 || alpha_ > 1.0)
    throw std::invalid_argument("Machine: alpha must be in [0, 1]");
  if (contention_ns_ < 0.0)
    throw std::invalid_argument("Machine: contention must be >= 0");
  if (mlp_delay_ns_ < 0.0)
    throw std::invalid_argument("Machine: mlp_delay must be >= 0");
  if (net_contention_ns_ < 0.0)
    throw std::invalid_argument("Machine: net_contention must be >= 0");
  if (layers_.empty()) throw std::invalid_argument("Machine: needs >= 1 layer");
  const auto n = static_cast<std::size_t>(num_cores_);
  if (layer_of_pair.size() != n * n)
    throw std::invalid_argument("Machine: layer matrix shape mismatch");

  // Pair codes (layer + 1; the diagonal stays 0), range-checked in one
  // sequential pass, then checked for symmetry tile by tile so the
  // transposed reads stay in cache on many-core machines.
  auto pairs = std::make_shared<PairTable>();
  pairs->code.resize(n * n);
  std::uint8_t* const code = pairs->code.data();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const int l = layer_of_pair[a * n + b];
      if (a != b && (l < 0 || l >= num_layers()))
        throw std::invalid_argument("Machine: layer index out of range");
      code[a * n + b] = a == b ? 0 : static_cast<std::uint8_t>(l + 1);
    }
  }
  constexpr std::size_t kTile = 64;
  for (std::size_t ta = 0; ta < n; ta += kTile) {
    for (std::size_t tb = ta; tb < n; tb += kTile) {
      for (std::size_t a = ta; a < std::min(ta + kTile, n); ++a) {
        for (std::size_t b = std::max(tb, a + 1); b < std::min(tb + kTile, n);
             ++b) {
          if (code[a * n + b] != code[b * n + a])
            throw std::invalid_argument(
                "Machine: layer matrix must be symmetric");
        }
      }
    }
  }
  for (const Layer& l : layers_) {
    if (l.ns <= 0.0) throw std::invalid_argument("Machine: layer latency must be > 0");
  }

  // Per-code costs the simulator's hot path loads on every access.  The
  // rfo entries use the exact expression the simulator once evaluated
  // inline (static_cast<Picos>(alpha * double(comm_ps))), so optimized
  // runs stay bit-for-bit identical.
  epsilon_ps_ = util::ns_to_ps(epsilon_ns_);
  contention_ps_ = util::ns_to_ps(contention_ns_);
  mlp_delay_ps_ = util::ns_to_ps(mlp_delay_ns_);
  net_contention_ps_ = util::ns_to_ps(net_contention_ns_);
  const std::size_t codes = layers_.size() + 1;
  pairs->comm.resize(codes);
  pairs->rfo.resize(codes);
  for (std::size_t c = 0; c < codes; ++c) {
    const util::Picos ps =
        c == 0 ? epsilon_ps_ : util::ns_to_ps(layers_[c - 1].ns);
    assert(ps <= kCommPsMask);
    pairs->comm[c] = ps | (static_cast<std::uint64_t>(c) << kCommLayerShift);
    pairs->rfo[c] = static_cast<util::Picos>(alpha_ * static_cast<double>(ps));
  }
  pair_code_ = pairs->code.data();
  comm_of_code_ = pairs->comm.data();
  rfo_of_code_ = pairs->rfo.data();
  pairs_ = std::move(pairs);
}

int Machine::layer(int core_a, int core_b) const {
  if (core_a < 0 || core_a >= num_cores_ || core_b < 0 || core_b >= num_cores_)
    throw std::out_of_range("Machine::layer: core index out of range");
  return layer_fast(core_a, core_b);
}

double Machine::comm_ns(int core_a, int core_b) const {
  const int l = layer(core_a, core_b);
  return l < 0 ? epsilon_ns_ : layers_[static_cast<std::size_t>(l)].ns;
}

util::Picos Machine::comm_ps(int core_a, int core_b) const {
  if (core_a < 0 || core_a >= num_cores_ || core_b < 0 || core_b >= num_cores_)
    throw std::out_of_range("Machine::comm_ps: core index out of range");
  return comm_ps_fast(core_a, core_b);
}

util::Picos Machine::layer_ps(int i) const {
  if (i < 0 || i >= num_layers())
    throw std::out_of_range("Machine::layer_ps: layer index out of range");
  return entry_ps(comm_of_code_[static_cast<std::size_t>(i) + 1]);
}

double Machine::mean_remote_ns() const {
  double sum = 0.0;
  for (const Layer& l : layers_) sum += l.ns;
  return sum / static_cast<double>(layers_.size());
}

}  // namespace armbar::topo
