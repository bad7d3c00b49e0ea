// Shared plumbing of the benchmark driver: the result being assembled,
// process-resource readings, scratch directories, the fleet configuration
// and fleet-side replay two workloads share, and the ledger report.
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/stream_digest.h"
#include "engine/fleet.h"
#include "stats.h"
#include "stream/session.h"
#include "stream/smoothing.h"
#include "trace.h"
#include "transport/transport.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_path;  ///< the collector_server binary (tcp_wal)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `attempted`/`failed` count operations: user
/// runs published, oracle comparisons, reads; a failure is anything lost,
/// refused, mismatched or timed out.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Extra facts for the detail line, already JSON-encoded values.
  std::map<std::string, std::string> detail;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Attempt(uint64_t n = 1) { attempted += n; }
  void Fail(const std::string& why, uint64_t n = 1) {
    failed += n;
    if (failures.size() < 16) failures.push_back(why);
  }
  /// Counts one oracle comparison and records a mismatch as a failure.
  void Check(bool ok, const std::string& what) {
    Attempt();
    if (!ok) Fail("oracle mismatch: " + what);
  }
  void Detail(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    detail[key] = buf;
  }
  void DetailHex(const std::string& key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", value);
    detail[key] = buf;
  }
};

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// User + system CPU recorded in `usage`, in ns.
inline double RusageCpuNs(const rusage& usage) {
  const auto ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 +
           static_cast<double>(tv.tv_usec) * 1e3;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// User + system CPU of this process so far, in ns.
inline double SelfCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return RusageCpuNs(usage);
}

/// CPU time of the calling thread so far, in ns.
inline double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Starts a fresh peak-RSS window for this process: resets the kernel's
/// high-water mark (VmHWM) to the current resident set, so PeakRssMb()
/// covers only what runs after it. False where the kernel refuses.
inline bool ResetPeakRss() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

/// Peak resident set of this process since the last ResetPeakRss() (or
/// since it started), in MB.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel writes kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Starts the peak-RSS window of the measured passes and says in the
/// detail line what `peak_rss_mb` covers.
inline void StartPeakRssWindow(Report& report) {
  report.detail["peak_rss_window"] =
      ResetPeakRss() ? "\"measured passes\"" : "\"whole process\"";
}

inline int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// The directory runs put their scratch files in: $TMPDIR (the runner
/// points it inside the checkout), else ".bench_tmp".
inline std::string ScratchRoot() {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string root = tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir
                                                            : ".bench_tmp";
  std::filesystem::create_directories(root);
  return root;
}

/// A fresh, empty directory under ScratchRoot(), removed when it goes out
/// of scope.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem) {
    static int counter = 0;
    path_ = ScratchRoot() + "/" + stem + "-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter++);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The benchmark's fleet: CAPP on the sinusoid at epsilon 1, w 10, d = 1,
/// streams not kept, kDirect unless the workload says otherwise.
inline capp::EngineConfig FleetConfig(uint64_t seed, size_t users,
                                      size_t slots, int threads) {
  capp::EngineConfig config;
  config.algorithm = capp::AlgorithmKind::kCapp;
  config.signal = capp::SignalKind::kSinusoid;
  config.epsilon = 1.0;
  config.window = 10;
  config.num_users = users;
  config.num_slots = slots;
  config.num_threads = threads;
  config.seed = seed;
  config.keep_streams = false;
  return config;
}

/// The d = 1 fleet side of a replay: a Fleet::Run worker's per-user calls
/// in its order (synthesis, perturbation, delivery, SMA, digest), each
/// timed over a block of users -- one span per call per block keeps the
/// clock reads out of the per-report cost -- with the block's series
/// staged here.
class FleetSideReplay {
 public:
  FleetSideReplay(const capp::EngineConfig& config, int smoothing,
                  size_t block, Tracer& tracer)
      : config_(config),
        smoothing_(smoothing),
        tracer_(tracer),
        synth_span_(tracer.Name("engine.synth")),
        perturb_span_(tracer.Name("algorithms.perturb")),
        sma_span_(tracer.Name("stream.sma")),
        digest_span_(tracer.Name("core.digest")),
        truths_(block * config.num_slots),
        reports_(block * config.num_slots),
        smoothed_(block * config.num_slots) {
    auto session = capp::UserSession::Create(
        0, config.algorithm, {config.epsilon, config.window}, /*seed=*/0);
    CAPP_CHECK(session.ok());
    session_.emplace(std::move(*session));
  }

  /// Runs users [first, end) (at most one block), calling
  /// `deliver(uid, reports)` for each user inside one `deliver_span` span
  /// between perturbation and SMA. False when the SMA refused a series.
  template <typename Deliver>
  bool Block(uint64_t first, uint64_t end, uint16_t deliver_span,
             Deliver&& deliver) {
    const size_t slots = config_.num_slots;
    const auto run = static_cast<uint32_t>(first);
    const auto row = [&](std::vector<double>& block, uint64_t uid) {
      return std::span<double>(block).subspan((uid - first) * slots, slots);
    };
    bool ok = true;
    {
      Tracer::Scope span(tracer_, synth_span_, run);
      for (uint64_t uid = first; uid < end; ++uid) {
        capp::Rng rng(capp::UserStreamSeed(config_.seed, uid, 0));
        capp::GenerateUserSignalInto(config_.signal, slots, rng, truth_);
        std::copy(truth_.begin(), truth_.end(), row(truths_, uid).begin());
      }
    }
    {
      Tracer::Scope span(tracer_, perturb_span_, run);
      for (uint64_t uid = first; uid < end; ++uid) {
        session_->ResetForUser(uid,
                               capp::UserStreamSeed(config_.seed, uid, 1));
        session_->ReportChunk(row(truths_, uid), row(reports_, uid));
      }
    }
    {
      Tracer::Scope span(tracer_, deliver_span, run);
      for (uint64_t uid = first; uid < end; ++uid) {
        deliver(uid, std::span<const double>(row(reports_, uid)));
      }
    }
    {
      Tracer::Scope span(tracer_, sma_span_, run);
      for (uint64_t uid = first; uid < end; ++uid) {
        ok = ok && capp::SimpleMovingAverageInto(row(reports_, uid),
                                                 smoothing_, published_,
                                                 sma_scratch_)
                       .ok();
        std::copy(published_.begin(), published_.end(),
                  row(smoothed_, uid).begin());
      }
    }
    {
      Tracer::Scope span(tracer_, digest_span_, run);
      for (uint64_t uid = first; uid < end; ++uid) {
        stream_digest_ ^= capp::UserStreamDigest(uid, row(smoothed_, uid));
      }
    }
    return ok;
  }

  uint64_t stream_digest() const { return stream_digest_; }

 private:
  const capp::EngineConfig& config_;
  const int smoothing_;
  Tracer& tracer_;
  const uint16_t synth_span_;
  const uint16_t perturb_span_;
  const uint16_t sma_span_;
  const uint16_t digest_span_;
  std::optional<capp::UserSession> session_;
  std::vector<double> truth_;
  std::vector<double> truths_;
  std::vector<double> reports_;
  std::vector<double> smoothed_;
  std::vector<double> published_;
  std::vector<double> sma_scratch_;
  uint64_t stream_digest_ = 0;
};

/// The transport rows read after a drain, per million reports where they
/// count events. The ring counters and per-consumer run counts come from
/// the consuming side, wire bytes, retries and failures from `sender`.
inline void ReportTransport(Report& report, double reports,
                            uint64_t push_stalls, uint64_t pop_waits,
                            std::span<const uint64_t> consumer_runs,
                            const capp::TransportStats& sender,
                            double drain_ms) {
  report.Set("transport.push_stalls_per_mreport",
             static_cast<double>(push_stalls) / reports * 1e6, "1/Mreport");
  report.Set("transport.pop_waits_per_mreport",
             static_cast<double>(pop_waits) / reports * 1e6, "1/Mreport");
  double max_runs = 0.0, sum_runs = 0.0;
  for (uint64_t runs : consumer_runs) {
    max_runs = std::max(max_runs, static_cast<double>(runs));
    sum_runs += static_cast<double>(runs);
  }
  if (sum_runs > 0) {
    report.Set("transport.consumer_skew",
               max_runs * static_cast<double>(consumer_runs.size()) /
                       sum_runs -
                   1.0,
               "ratio");
  }
  report.Set("transport.drain_ms", drain_ms, "ms");
  report.Set("transport.wire_bytes_per_report",
             static_cast<double>(sender.wire_bytes) / reports, "B");
  report.Set("transport.retries",
             static_cast<double>(sender.reconnects + sender.replayed_chunks +
                                 sender.duplicate_chunks),
             "count");
  report.Set("transport.failures",
             static_cast<double>(sender.decode_failures +
                                 sender.stream_errors +
                                 sender.handshake_rejects),
             "count");
}

/// What one traced replay measured, kept after its spans are dropped.
/// Spans named "driver.*" are the replay's own glue and "probe.*" are side
/// measurements (work the pipeline does not do); neither is a ledger row,
/// and probe time is left out of `wall_ns`.
struct Ledger {
  double wall_ns = 0.0;
  std::map<std::string, uint64_t> self_ns;
  std::map<std::string, uint64_t> total_ns;
  size_t spans = 0;
};

inline Ledger Summarize(const Tracer& tracer, double wall_ns) {
  Ledger ledger;
  ledger.self_ns = tracer.SelfTimeByName();
  ledger.total_ns = tracer.TotalTimeByName();
  ledger.spans = tracer.spans().size();
  ledger.wall_ns = wall_ns;
  for (const auto& [name, ns] : ledger.total_ns) {
    if (name.starts_with("probe.")) ledger.wall_ns -= static_cast<double>(ns);
  }
  return ledger;
}

/// Reports the ledger of the traced replay with the median wall time: one
/// `<span>_ns` metric per row (self ns per report); the closure
/// `ledger.unaccounted_frac`, 1 - (sum of the rows) / the median of
/// `closure_ns`, which must hold within the stated tolerance; and
/// `driver.trace_overhead`, the traced replay's wall time over the median
/// of `untraced_ns`, the same replay run with tracing off. `closure_ns` is
/// the untraced program on one thread where the workload has such a run,
/// and names what it is in `closure_reference`. The runs alternate, so
/// drift in the host's speed hits all alike. Returns the index of the
/// ledger used.
inline size_t ReportLedger(Report& report, const std::vector<Ledger>& ledgers,
                           const std::vector<double>& closure_ns,
                           const std::string& closure_reference,
                           const std::vector<double>& untraced_ns,
                           double reports) {
  constexpr double kClosureTolerance = 0.15;
  std::vector<size_t> order(ledgers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ledgers[a].wall_ns < ledgers[b].wall_ns;
  });
  const size_t chosen = order[order.size() / 2];
  const Ledger& ledger = ledgers[chosen];
  std::vector<double> rows;
  for (const auto& [name, self_ns] : ledger.self_ns) {
    if (name.starts_with("driver.") || name.starts_with("probe.")) continue;
    rows.push_back(static_cast<double>(self_ns) / reports);
    report.Set(name + "_ns", rows.back(), "ns");
  }
  const double reference = Median(closure_ns);
  const double frac = UnaccountedFraction(rows, reference / reports);
  report.Set("ledger.unaccounted_frac", frac, "ratio");
  report.Set("driver.trace_overhead",
             ledger.wall_ns / Median(untraced_ns) - 1.0, "ratio");
  report.Detail("ledger.reference_ns_per_report", reference / reports);
  report.detail["ledger.closure_reference"] =
      "\"" + closure_reference + "\"";
  report.Detail("ledger.closure_tolerance", kClosureTolerance);
  report.Detail("ledger.spans", static_cast<double>(ledger.spans));
  report.Detail("ledger.replays", static_cast<double>(ledgers.size()));
  report.Check(LedgerCloses(frac, kClosureTolerance),
               "ledger rows do not sum to the " + closure_reference);
  return chosen;
}

/// Traced and untraced replays per traced run.
inline constexpr int kReplayRounds = 3;

/// Writes the first `max_spans` spans of a replay as Chrome trace JSON
/// (chrome://tracing, Perfetto) to `path`.
void WriteChromeTrace(const Tracer& tracer, const std::string& path,
                      size_t max_spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
