// The benchmark's own statistics: percentiles, the open-loop ladder
// decision, the slot-completeness rule and the ledger closure. Pure
// functions of their inputs, so perfbench/tests/stats_test.cc pins them.
#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`
/// samples: the percentile is the ceil(pct/100 * n)-th smallest value.
inline size_t SamplesBeyond(size_t n, double pct) {
  const auto rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

/// Nearest-rank percentile; 0 when empty.
inline double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t beyond = SamplesBeyond(values.size(), pct);
  return values[values.size() - beyond - 1];
}

/// The percentiles a timing may be reported at, highest last.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};

/// The highest percentile of kTailLadder that has at least `min_beyond`
/// samples beyond it, or 0 when even the median has fewer.
inline double HighestSupportedPercentile(size_t n, size_t min_beyond = 10) {
  double best = 0.0;
  for (double pct : kTailLadder) {
    if (SamplesBeyond(n, pct) >= min_beyond) best = pct;
  }
  return best;
}

/// Slots an open-loop pass must publish so that p95 of its per-slot lag
/// has at least ten samples beyond it.
inline size_t SlotsForP95() {
  size_t n = 1;
  while (SamplesBeyond(n, 95.0) < 10) ++n;
  return n;
}

/// Slot `slot` of a d-dimensional collector is complete when every one of
/// its `dims` cells (cell = slot * dims + dim) has exactly `users`
/// reports. Never judged by a total over cells or slots: the consumers
/// ingest different users' cells independently and can run a slot ahead
/// of each other, so a total can reach its target while a cell is short.
inline bool SlotComplete(std::span<const uint64_t> cell_counts, size_t dims,
                         size_t slot, uint64_t users) {
  if ((slot + 1) * dims > cell_counts.size()) return false;
  for (size_t k = 0; k < dims; ++k) {
    if (cell_counts[slot * dims + k] != users) return false;
  }
  return true;
}

/// The lag series of one open-loop pass grows when the mean lag of its
/// last third exceeds that of its first third by more than half the lag
/// limit: a stationary queue keeps the two thirds level, an overloaded
/// one adds lag with every slot.
inline bool BacklogGrows(std::span<const double> lags_ms, double limit_ms) {
  const size_t third = lags_ms.size() / 3;
  if (third == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < third; ++i) {
    first += lags_ms[i];
    last += lags_ms[lags_ms.size() - third + i];
  }
  return (last - first) / static_cast<double>(third) > 0.5 * limit_ms;
}

/// What one open-loop pass at a fixed rate observed.
struct RungResult {
  double lag_p95_ms = 0.0;
  bool backlog_grows = false;
  bool failed = false;  ///< a pass that lost or refused anything
};

/// A rate is sustained when its pass failed nothing, its p95 lag stays
/// under the limit, and its backlog does not grow.
inline bool RungSustained(const RungResult& rung, double limit_ms) {
  return !rung.failed && rung.lag_p95_ms < limit_ms && !rung.backlog_grows;
}

/// The highest rate of the ascending `ladder` that is sustained, found by
/// binary search (one probe per halving, so a ladder of 16 rungs costs
/// four or five passes). Assumes sustainability is monotone in the rate.
/// Returns 0 when not even the lowest rung is sustained.
inline double SustainedRate(std::span<const double> ladder, double limit_ms,
                            const std::function<RungResult(double)>& probe,
                            size_t* probes = nullptr) {
  size_t lo = 0;                // rungs below lo are sustained
  size_t hi = ladder.size();    // rungs at or above hi are not
  size_t count = 0;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++count;
    if (RungSustained(probe(ladder[mid]), limit_ms)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) *probes = count;
  return lo == 0 ? 0.0 : ladder[lo - 1];
}

/// One traced span, as the ledger sees it.
struct SpanInterval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (children clipped to the parent).
inline std::vector<uint64_t> SelfTimes(std::span<const SpanInterval> spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const SpanInterval& span : spans) {
    if (span.parent >= 0) {
      const SpanInterval& parent = spans[static_cast<size_t>(span.parent)];
      const uint64_t begin = std::max(span.start_ns, parent.start_ns);
      const uint64_t end = std::min(span.end_ns, parent.end_ns);
      if (begin < end) {
        children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
      }
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t reach = 0;  // end of the union so far
    for (const auto& [begin, end] : kids) {
      const uint64_t from = std::max(begin, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const uint64_t duration = spans[i].end_ns - spans[i].start_ns;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

/// Share of the reference cost the ledger rows do not explain:
/// 1 - (sum of the rows' ns/report) / (reference ns/report). Positive when
/// the rows miss work, negative when tracing inflated them past it.
inline double UnaccountedFraction(std::span<const double> row_ns_per_report,
                                  double reference_ns_per_report) {
  double sum = 0.0;
  for (double row : row_ns_per_report) sum += row;
  return 1.0 - sum / reference_ns_per_report;
}

/// The closure check: the rows sum to the reference within `tolerance`.
inline bool LedgerCloses(double unaccounted_fraction, double tolerance) {
  return std::fabs(unaccounted_fraction) <= tolerance;
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
