#include "cells.hpp"

#include <charconv>
#include <utility>

#include "armbar/util/prng.hpp"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

struct ColdMachine {
  const char* name;
  int cores;
};

// Core counts of the stock machines (checked against the topology by the
// generator tests).
constexpr ColdMachine kColdMachines[] = {
    {"phytium2000+", 64}, {"thunderx2", 64}, {"kunpeng920", 64},
    {"xeongold", 32}};

constexpr const char* kColdAlgos[] = {"sense", "dis",   "cmb",    "mcs",
                                      "tour",  "stour", "dtour",  "hyper",
                                      "opt",   "hybrid", "nway-dis", "ring"};

constexpr std::size_t kWarmStride = 7;

}  // namespace

std::string job_line(const armbar::svc::JobSpec& s) {
  const armbar::svc::JobSpec d;
  const armbar::fault::FaultSpec& f = s.fault;
  const armbar::fault::FaultSpec& df = d.fault;
  std::string out = "{\"machine\": \"" + s.machine + "\", \"algo\": \"" +
                    s.algo + "\", \"threads\": " + std::to_string(s.threads);
  const auto field = [&](const char* name, const std::string& value) {
    out += ", \"";
    out += name;
    out += "\": ";
    out += value;
  };
  if (s.iterations != d.iterations)
    field("iterations", std::to_string(s.iterations));
  if (s.warmup != d.warmup) field("warmup", std::to_string(s.warmup));
  if (s.placement != d.placement) field("placement", "\"" + s.placement + "\"");
  const std::pair<const char*, std::pair<double, double>> doubles[] = {
      {"noise_period_us", {f.noise.period_us, df.noise.period_us}},
      {"noise_duration_us", {f.noise.duration_us, df.noise.duration_us}},
      {"burst_interval_us", {f.burst.interval_us, df.burst.interval_us}},
      {"burst_duration_us", {f.burst.duration_us, df.burst.duration_us}},
      {"straggler_fraction", {f.straggler.fraction, df.straggler.fraction}},
      {"straggler_slowdown", {f.straggler.slowdown, df.straggler.slowdown}},
      {"straggler_dwell_us", {f.straggler.dwell_us, df.straggler.dwell_us}},
      {"link_factor", {f.link.factor, df.link.factor}},
      {"link_flap_interval_us",
       {f.link.flap_interval_us, df.link.flap_interval_us}},
      {"link_flap_duration_us",
       {f.link.flap_duration_us, df.link.flap_duration_us}}};
  for (const auto& [name, v] : doubles)
    if (v.first != v.second) field(name, num(v.first));
  if (f.link.min_layer != df.link.min_layer)
    field("link_min_layer", std::to_string(f.link.min_layer));
  if (f.seed != df.seed) field("fault_seed", std::to_string(f.seed));
  out += "}";
  return out;
}

std::vector<std::uint32_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
  armbar::util::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

std::vector<GridCell> sweep_grid() {
  using armbar::Algo;
  std::vector<GridCell> grid;
  for (const char* m : {"phytium2000+", "thunderx2", "kunpeng920"})
    for (Algo a : armbar::paper_seven())
      for (int p : {1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64})
        grid.push_back({m, a, p, 20, 5, false});
  for (Algo a : {Algo::kClusterAmo, Algo::kCentral2, Algo::kHybrid,
                 Algo::kOptimized})
    for (int p : {256, 1024}) grid.push_back({"hier1024", a, p, 10, 2, true});
  return grid;
}

armbar::svc::JobSpec to_spec(const GridCell& cell) {
  armbar::svc::JobSpec s;
  s.machine = cell.machine;
  s.algo = armbar::to_string(cell.algo);
  s.threads = cell.threads;
  s.iterations = cell.iterations;
  s.warmup = cell.warmup;
  return s;
}

std::vector<armbar::fault::FaultSpec> fault_variants() {
  std::vector<armbar::fault::FaultSpec> v(3);
  v[0].noise.period_us = 50.0;
  v[0].noise.duration_us = 5.0;
  v[1].straggler.fraction = 0.25;
  v[1].straggler.slowdown = 2.0;
  v[2].burst.interval_us = 100.0;
  v[2].burst.duration_us = 10.0;
  return v;
}

std::vector<armbar::svc::JobSpec> cold_cells() {
  const std::vector<armbar::fault::FaultSpec> faults = fault_variants();
  std::vector<armbar::svc::JobSpec> cells;
  std::size_t k = 0;
  for (const ColdMachine& m : kColdMachines)
    for (const char* algo : kColdAlgos)
      for (int t = 2; t <= m.cores; ++t, ++k) {
        armbar::svc::JobSpec s;
        s.machine = m.name;
        s.algo = algo;
        s.threads = t;
        s.placement = k % 2 == 0 ? "compact" : "scatter";
        if (k % 4 == 3) s.fault = faults[(k / 4) % faults.size()];
        cells.push_back(std::move(s));
      }
  return cells;
}

std::vector<armbar::svc::JobSpec> warm_cells() {
  const std::vector<armbar::svc::JobSpec> cold = cold_cells();
  std::vector<armbar::svc::JobSpec> cells;
  for (std::size_t i = 0; i < cold.size(); i += kWarmStride)
    cells.push_back(cold[i]);
  return cells;
}

std::vector<std::uint32_t> warm_pass(std::size_t cells, int rounds,
                                     std::uint64_t seed) {
  std::vector<std::uint32_t> pass;
  pass.reserve(cells * static_cast<std::size_t>(rounds));
  const std::uint64_t base = seed * 0x9e3779b97f4a7c15ull;
  for (std::uint64_t r = 1; r <= static_cast<std::uint64_t>(rounds); ++r) {
    const std::vector<std::uint32_t> p = permutation(cells, base + r);
    pass.insert(pass.end(), p.begin(), p.end());
  }
  return pass;
}

}  // namespace perfbench
