#pragma once
// Sweep-level metrics roll-up and phase-attribution vocabulary.
//
// A sweep produces one MetricsReport per (machine, algorithm, threads)
// cell (simbar::SweepDriver::run_with_metrics).  This module joins those
// per-job reports into one cross-machine / cross-algorithm SweepSummary —
// per-phase span shares, per-layer transfer totals, RFO density — with a
// streaming JSON writer and a table renderer (sweep_cli --metrics), and
// defines the shared classification the autotuner uses to explain *why* a
// configuration wins: arrival-bound vs notification-bound, from the
// paper's Section III decomposition.  See docs/TRACING.md §7 for the JSON schema and the
// explanation vocabulary.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "armbar/obs/metrics.hpp"

namespace armbar::simbar {
struct MeteredRun;  // sweep.hpp; overload below avoids a header cycle
}

namespace armbar::obs {

// -- phase attribution ------------------------------------------------------

/// Fraction of the run's total outermost-span time spent in each phase.
/// All zero when the run recorded no spans (e.g. an unannotated barrier).
struct PhaseShares {
  double arrival = 0.0;
  double notification = 0.0;
  double other = 0.0;  ///< unattributed (Phase::kNone) span time
};

/// Span share above which a phase is considered to dominate a run.
inline constexpr double kDefaultBoundThreshold = 0.55;

/// Which phase dominates a run.
enum class Bound : std::uint8_t {
  kBalanced = 0,          ///< neither phase reaches the threshold
  kArrivalBound = 1,      ///< arrival span share >= threshold
  kNotificationBound = 2, ///< notification span share >= threshold
};

/// Stable name ("balanced", "arrival-bound", "notification-bound").
const char* to_string(Bound b) noexcept;

PhaseShares span_shares(const MetricsReport& report) noexcept;

Bound classify(const PhaseShares& shares,
               double threshold = kDefaultBoundThreshold) noexcept;

/// One-line phase attribution for a run: the dominant phase, its span
/// share, and the costliest latency layer its remote transfers cross —
/// e.g. "notification-bound: 62% of span in notification, 48% of its
/// transfers cross L2 (cross-SCCL)".  Never empty.
std::string explain(const MetricsReport& report,
                    double threshold = kDefaultBoundThreshold);

// -- sweep roll-up ----------------------------------------------------------

/// The part of a roll-up that folds every report together: per-machine
/// totals, in first-occurrence order, and the trace-overflow counters.
struct SweepTotals {
  /// Totals per machine (layer indices are machine-relative, so
  /// cross-machine layer totals would be meaningless).
  struct MachineTotals {
    std::string machine;
    std::vector<std::string> layer_names;
    /// [phase][layer] remote-transfer totals, phase indexed by obs::Phase.
    std::vector<std::vector<std::uint64_t>> phase_layer_transfers;
    std::uint64_t total_ops = 0;
    std::uint64_t rfo_invalidations = 0;
    int runs = 0;
  };

  std::vector<MachineTotals> machines;
  /// Summed log-overflow accounting across jobs (counters stay exact).
  std::size_t dropped_events = 0;
  std::size_t dropped_spans = 0;
};

/// Cross-machine/cross-algorithm aggregation of per-job MetricsReports:
/// the totals plus one row per report.  Rows preserve report (= job)
/// order, so the summary is deterministic for a deterministic sweep
/// regardless of worker count.
struct SweepSummary : SweepTotals {
  /// One row per report.
  struct Row {
    std::string machine;
    std::string barrier;
    int threads = 0;
    int iterations = 0;
    double mean_overhead_ns = 0.0;
    PhaseShares shares;
    Bound bound = Bound::kBalanced;
    std::uint64_t total_ops = 0;
    std::uint64_t remote_transfers = 0;
    std::uint64_t rfo_invalidations = 0;
    /// RFO density: invalidations per 1000 traced operations.
    double rfo_per_kop = 0.0;
    /// Remote transfers per layer, summed over phases (index = machine
    /// layer; comparable only within one machine).
    std::vector<std::uint64_t> layer_transfers;
  };

  std::vector<Row> rows;
};

/// The roll-up itself, over reports owned elsewhere.  No pointer may be
/// null.
SweepSummary aggregate(std::span<const MetricsReport* const> reports);

/// Adapters over the pointer form; neither copies a report.
SweepSummary aggregate(const std::vector<MetricsReport>& reports);

/// Convenience: aggregate straight from SweepDriver::run_with_metrics.
SweepSummary aggregate(const std::vector<simbar::MeteredRun>& runs);

/// The totals alone, without building a row per report.  With rows from
/// render_row, write_json(os, aggregate_totals(r), rows) streams the same
/// bytes as write_json(os, aggregate(r)); the service renders each
/// cached cell's row once and splices it into every summary that needs
/// it.  No pointer may be null.
SweepTotals aggregate_totals(std::span<const MetricsReport* const> reports);

/// The summary-document row object for one report, exactly as write_json
/// renders it inside "rows" (no separator, no trailing newline).
std::string render_row(const MetricsReport& report);

/// Stream pretty-printed JSON (schema: docs/TRACING.md §7) to @p os in
/// chunks of a few KB, so the document is never held whole.
/// Locale-independent — neither the global locale nor @p os's own locale
/// reaches the bytes — and strictly valid JSON (non-finite doubles are
/// emitted as null).
void write_json(std::ostream& os, const SweepSummary& summary);

/// The same document from totals plus rows already rendered by
/// render_row, in report order.
void write_json(std::ostream& os, const SweepTotals& totals,
                std::span<const std::string_view> rows);

/// write_json into a string.
std::string to_json(const SweepSummary& summary);

/// Render as aligned text tables: one cross-algorithm row table plus one
/// per-machine layer-transfer table.
std::string to_table(const SweepSummary& summary);

}  // namespace armbar::obs
