// Tests for the sweep-level metrics roll-up (obs::aggregate) and the
// shared phase-attribution vocabulary (span shares, bound classification,
// explanations) the autotuner builds its output on.

#include <gtest/gtest.h>

#include <limits>
#include <locale>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "armbar/obs/aggregate.hpp"
#include "armbar/simbar/sim_barriers.hpp"
#include "armbar/simbar/sweep.hpp"
#include "armbar/topo/platforms.hpp"
#include "hostile_locale.hpp"

namespace armbar::obs {
namespace {

MetricsReport synthetic_report(const std::string& machine,
                               const std::string& barrier,
                               double arrival_span_ns,
                               double notification_span_ns) {
  MetricsReport r;
  r.machine_name = machine;
  r.barrier_name = barrier;
  r.threads = 4;
  r.iterations = 8;
  r.mean_overhead_ns = arrival_span_ns + notification_span_ns;
  r.layer_names = {"intra", "inter"};
  r.phases.resize(static_cast<std::size_t>(kNumPhases));
  for (int p = 0; p < kNumPhases; ++p)
    r.phases[static_cast<std::size_t>(p)].phase = static_cast<Phase>(p);
  auto& arrival = r.phases[static_cast<std::size_t>(Phase::kArrival)];
  arrival.span_ns = arrival_span_ns;
  arrival.reads = 10;
  arrival.layer_transfers = {6, 2};
  arrival.remote_transfers = 8;
  auto& notification = r.phases[static_cast<std::size_t>(Phase::kNotification)];
  notification.span_ns = notification_span_ns;
  notification.writes = 5;
  notification.layer_transfers = {1, 4};
  notification.remote_transfers = 5;
  r.totals.invalidations = 3;
  r.totals.layer_transfers = {7, 6};
  return r;
}

TEST(Bound, NamesAreStable) {
  EXPECT_STREQ(to_string(Bound::kBalanced), "balanced");
  EXPECT_STREQ(to_string(Bound::kArrivalBound), "arrival-bound");
  EXPECT_STREQ(to_string(Bound::kNotificationBound), "notification-bound");
}

TEST(SpanShares, NormalizeAndHandleEmptyRuns) {
  const auto r = synthetic_report("m", "b", 300.0, 100.0);
  const PhaseShares s = span_shares(r);
  EXPECT_DOUBLE_EQ(s.arrival, 0.75);
  EXPECT_DOUBLE_EQ(s.notification, 0.25);
  EXPECT_DOUBLE_EQ(s.other, 0.0);

  MetricsReport empty;
  empty.phases.resize(static_cast<std::size_t>(kNumPhases));
  const PhaseShares zero = span_shares(empty);
  EXPECT_DOUBLE_EQ(zero.arrival, 0.0);
  EXPECT_DOUBLE_EQ(zero.notification, 0.0);
}

TEST(Classify, ThresholdAndTieBreak) {
  EXPECT_EQ(classify({0.75, 0.25, 0.0}), Bound::kArrivalBound);
  EXPECT_EQ(classify({0.25, 0.75, 0.0}), Bound::kNotificationBound);
  EXPECT_EQ(classify({0.5, 0.5, 0.0}), Bound::kBalanced);
  // Both at threshold: arrival wins (the paper's first optimization
  // target).
  EXPECT_EQ(classify({0.5, 0.5, 0.0}, 0.5), Bound::kArrivalBound);
  // Custom threshold.
  EXPECT_EQ(classify({0.6, 0.4, 0.0}, 0.7), Bound::kBalanced);
}

TEST(Explain, NamesPhaseShareAndDominantLayer) {
  const auto r = synthetic_report("m", "b", 300.0, 100.0);
  const std::string why = explain(r);
  EXPECT_NE(why.find("arrival-bound"), std::string::npos) << why;
  EXPECT_NE(why.find("75%"), std::string::npos) << why;
  // Arrival's transfers are 6 intra + 2 inter: the highest layer holds
  // only 25% >= 20%, so L1 ("inter") is called out as the dominant hop.
  EXPECT_NE(why.find("L1"), std::string::npos) << why;
  EXPECT_NE(why.find("inter"), std::string::npos) << why;
}

TEST(Explain, NeverEmptyEvenWithoutSpans) {
  MetricsReport empty;
  empty.phases.resize(static_cast<std::size_t>(kNumPhases));
  const std::string why = explain(empty);
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("no phase spans"), std::string::npos) << why;
}

TEST(Aggregate, RowsPreserveOrderAndMachinesFirstOccurrence) {
  const std::vector<MetricsReport> reports = {
      synthetic_report("B", "x", 100.0, 100.0),
      synthetic_report("A", "y", 200.0, 100.0),
      synthetic_report("B", "z", 100.0, 300.0),
  };
  const SweepSummary s = aggregate(reports);
  ASSERT_EQ(s.rows.size(), 3u);
  EXPECT_EQ(s.rows[0].barrier, "x");
  EXPECT_EQ(s.rows[1].barrier, "y");
  EXPECT_EQ(s.rows[2].barrier, "z");
  ASSERT_EQ(s.machines.size(), 2u);
  EXPECT_EQ(s.machines[0].machine, "B");
  EXPECT_EQ(s.machines[1].machine, "A");
  EXPECT_EQ(s.machines[0].runs, 2);
  EXPECT_EQ(s.machines[1].runs, 1);
  // Machine totals sum the per-run phase histograms.
  const auto& arrival = s.machines[0].phase_layer_transfers[static_cast<
      std::size_t>(Phase::kArrival)];
  EXPECT_EQ(arrival[0], 12u);  // 6 + 6
  EXPECT_EQ(arrival[1], 4u);   // 2 + 2
  // Per-row derived metrics.
  EXPECT_EQ(s.rows[0].total_ops, 15u);
  EXPECT_EQ(s.rows[0].remote_transfers, 13u);
  EXPECT_DOUBLE_EQ(s.rows[0].rfo_per_kop, 200.0);  // 3 per 15 ops
}

TEST(Aggregate, JsonAndTableRender) {
  const std::vector<MetricsReport> reports = {
      synthetic_report("m1", "bar\"rier", 300.0, 100.0)};
  const SweepSummary s = aggregate(reports);
  const std::string json = to_json(s);
  EXPECT_EQ(json.front(), '{');
  for (const char* key :
       {"\"runs\"", "\"rows\"", "\"machines\"", "\"span_shares\"",
        "\"phase_layer_transfers\"", "\"rfo_per_kop\"", "\"trace\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // The quote in the barrier name is escaped, never raw.
  EXPECT_NE(json.find("bar\\\"rier"), std::string::npos);

  const std::string table = to_table(s);
  EXPECT_NE(table.find("bound"), std::string::npos);
  EXPECT_NE(table.find("rfo/kop"), std::string::npos);
  EXPECT_NE(table.find("other"), std::string::npos);
}

/// Enough rows on two machines that the streamed document crosses many
/// of write_json's flush boundaries.
std::vector<MetricsReport> many_reports() {
  std::vector<MetricsReport> reports;
  for (int i = 0; i < 240; ++i) {
    MetricsReport r = synthetic_report(i % 3 == 0 ? "m\"1" : "m2",
                                       "b" + std::to_string(i),
                                       100.0 + i * 0.37, 1e5 / (i + 1));
    r.mean_overhead_ns = 1234567.0 + i / 7.0;
    r.threads = 1000 + i;
    r.dropped_events = static_cast<std::size_t>(i);
    reports.push_back(std::move(r));
  }
  return reports;
}

TEST(Aggregate, JsonBytesArePinned) {
  // The exact summary document; the streaming writer and the locale-free
  // number formatting must reproduce it byte for byte.
  const SweepSummary s =
      aggregate(std::vector<MetricsReport>{synthetic_report("m", "b", 300.0,
                                                            100.0 / 3.0)});
  EXPECT_EQ(to_json(s), R"({
  "runs": 1,
  "rows": [
    {
      "machine": "m",
      "barrier": "b",
      "threads": 4,
      "iterations": 8,
      "mean_overhead_ns": 333.333,
      "bound": "arrival-bound",
      "span_shares": {"arrival": 0.9, "notification": 0.1, "other": 0},
      "total_ops": 15,
      "remote_transfers": 13,
      "rfo_invalidations": 3,
      "rfo_per_kop": 200,
      "layer_transfers": [7,6]
    }
  ],
  "machines": [
    {
      "machine": "m",
      "runs": 1,
      "layers": ["intra","inter"],
      "phase_layer_transfers": {"none": [0,0], "arrival": [6,2], "notification": [1,4]},
      "total_ops": 15,
      "rfo_invalidations": 3
    }
  ],
  "trace": {"dropped_events": 0, "dropped_spans": 0}
}
)");
}

TEST(Aggregate, WriteJsonStreamsTheSameBytes) {
  const SweepSummary s = aggregate(many_reports());
  ASSERT_EQ(s.rows.size(), 240u);
  ASSERT_EQ(s.machines.size(), 2u);
  const std::string doc = to_json(s);
  EXPECT_GT(doc.size(), 64'000u) << "must span many flush chunks";

  std::ostringstream plain;
  write_json(plain, s);
  EXPECT_EQ(plain.str(), doc);

  // A caller's stream carrying a grouping, comma-decimal locale changes
  // nothing: numbers never pass through the stream's formatting.
  std::ostringstream hostile;
  hostile.imbue(test_support::hostile_locale());
  write_json(hostile, s);
  EXPECT_EQ(hostile.str(), doc);
  {
    test_support::GlobalLocaleGuard guard;
    EXPECT_EQ(to_json(s), doc);
  }
}

TEST(Aggregate, PointerCoreMatchesValueAdapter) {
  const std::vector<MetricsReport> reports = many_reports();
  std::vector<const MetricsReport*> ptrs;
  for (const MetricsReport& r : reports) ptrs.push_back(&r);
  const SweepSummary by_value = aggregate(reports);
  const SweepSummary by_pointer = aggregate(ptrs);
  EXPECT_EQ(to_json(by_pointer), to_json(by_value));
  EXPECT_EQ(to_table(by_pointer), to_table(by_value));
  EXPECT_EQ(by_pointer.dropped_events, by_value.dropped_events);
  EXPECT_TRUE(aggregate(std::span<const MetricsReport* const>{}).rows.empty());
}

/// The service's summary: totals folded over the reports, each row
/// rendered on its own by render_row and spliced in, written to a stream
/// imbued with @p loc.
std::string spliced_json(const std::vector<MetricsReport>& reports,
                         const std::locale& loc = std::locale::classic()) {
  std::vector<const MetricsReport*> ptrs;
  std::vector<std::string> rendered;
  for (const MetricsReport& r : reports) {
    ptrs.push_back(&r);
    rendered.push_back(render_row(r));
  }
  const std::vector<std::string_view> rows(rendered.begin(), rendered.end());
  std::ostringstream os;
  os.imbue(loc);
  write_json(os, aggregate_totals(ptrs), rows);
  return os.str();
}

TEST(Aggregate, SplicedRowsMatchTheFullRollUp) {
  std::vector<MetricsReport> reports = many_reports();  // machines m"1, m2
  // No spans at all: every share is 0.
  reports.push_back(synthetic_report("m3", "quiet", 0.0, 0.0));
  // A non-finite span: the shares (and this overhead) render as null.
  MetricsReport odd = synthetic_report(
      "m2", "odd", std::numeric_limits<double>::quiet_NaN(), 5.0);
  odd.mean_overhead_ns = std::numeric_limits<double>::infinity();
  reports.push_back(std::move(odd));
  reports.push_back(synthetic_report("m\"1", "last", 7.0, 3.0));
  reports.back().dropped_spans = 3;

  const std::string doc = to_json(aggregate(reports));
  EXPECT_NE(doc.find("\"span_shares\": {\"arrival\": 0, \"notification\": 0, "
                     "\"other\": 0}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"mean_overhead_ns\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"span_shares\": {\"arrival\": null, "
                     "\"notification\": null, \"other\": null}"),
            std::string::npos);
  // many_reports() drops 0 + 1 + ... + 239 events.
  EXPECT_NE(doc.find("\"trace\": {\"dropped_events\": 28680, "
                     "\"dropped_spans\": 3}"),
            std::string::npos);
  EXPECT_EQ(aggregate_totals(std::span<const MetricsReport* const>{})
                .machines.size(),
            0u);

  EXPECT_EQ(spliced_json(reports), doc);
  EXPECT_EQ(spliced_json({}), to_json(aggregate(std::vector<MetricsReport>{})));
  EXPECT_EQ(spliced_json(reports, test_support::hostile_locale()), doc);
  {
    test_support::GlobalLocaleGuard guard;
    EXPECT_EQ(spliced_json(reports), doc);
  }

  // A rendered row is exactly the row object inside the document.
  const std::string row = render_row(reports.front());
  EXPECT_EQ(row.substr(0, 6), "    {\n");
  EXPECT_EQ(row.substr(row.size() - 6), "\n    }");
  EXPECT_NE(doc.find("\"rows\": [\n" + row + ",\n"), std::string::npos);
}

TEST(Aggregate, RealSweepRoundTrip) {
  // End-to-end: run a small real sweep with metrics and aggregate it.
  const auto m = topo::kunpeng920();
  std::vector<simbar::SweepJob> jobs;
  for (const Algo a : {Algo::kStaticFway, Algo::kSense}) {
    simbar::SimRunConfig cfg;
    cfg.threads = 16;
    cfg.iterations = 8;
    cfg.warmup = 2;
    jobs.push_back({&m, simbar::sim_factory(a, {}), cfg});
  }
  const auto runs = simbar::SweepDriver(2).run_with_metrics(jobs);
  const SweepSummary s = aggregate(runs);
  ASSERT_EQ(s.rows.size(), 2u);
  ASSERT_EQ(s.machines.size(), 1u);
  EXPECT_EQ(s.machines[0].runs, 2);
  for (const auto& row : s.rows) {
    EXPECT_GT(row.mean_overhead_ns, 0.0) << row.barrier;
    EXPECT_GT(row.remote_transfers, 0u) << row.barrier;
    // Shares of an annotated barrier run must be meaningful.
    EXPECT_GT(row.shares.arrival + row.shares.notification, 0.9)
        << row.barrier;
  }
  // The machine's layer totals reconcile with the per-row sums.
  for (std::size_t l = 0; l < s.machines[0].layer_names.size(); ++l) {
    std::uint64_t phase_sum = 0;
    for (int p = 0; p < kNumPhases; ++p)
      phase_sum +=
          s.machines[0].phase_layer_transfers[static_cast<std::size_t>(p)][l];
    std::uint64_t row_sum = 0;
    for (const auto& row : s.rows)
      row_sum += l < row.layer_transfers.size() ? row.layer_transfers[l] : 0;
    EXPECT_EQ(phase_sum, row_sum) << "layer " << l;
  }
}

}  // namespace
}  // namespace armbar::obs
