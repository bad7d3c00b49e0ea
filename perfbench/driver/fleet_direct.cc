// fleet_direct: closed loop, in process. Fleet::Run with kDirect, d = 1,
// CAPP on the sinusoid at epsilon 1, w 10, nproc - 1 workers beside a live
// reader.
// Its cost is perturbation, synthesis, SMA, digest and aggregate ingest;
// no transport, storage or analysis runs, so it is the workload on which
// faster perturbation or a cheaper exact aggregate must show, and on which
// a transport or WAL change must not.
#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "engine/fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kUsers = 300000;
constexpr size_t kSlots = 100;
constexpr size_t kBlock = 64;  // users per replay span

capp::EngineConfig Config(uint64_t seed, int threads) {
  capp::EngineConfig config = FleetConfig(seed, kUsers, kSlots, threads);
  config.transport.kind = capp::TransportKind::kDirect;
  return config;
}

// A live reader beside the fleet's ingest: every 2 ms it snapshots the
// collector's per-slot aggregates and pools the latest window's crowd
// mean (fleet_direct has no histogram tier to run AnalyzeWindow on). It
// also notes when each slot is complete, for the publish lag.
class AggregateReader {
 public:
  AggregateReader(const capp::CollectorBackend& collector, uint64_t users,
                  size_t slots, size_t window)
      : collector_(collector),
        users_(users),
        window_(window),
        complete_at_ns_(slots, 0) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~AggregateReader() { Finish(0); }
  AggregateReader(const AggregateReader&) = delete;
  AggregateReader& operator=(const AggregateReader&) = delete;

  /// Lets the reader see every slot complete (ingest is over), waiting at
  /// most `grace_ns`, then joins it.
  void Finish(uint64_t grace_ns) {
    if (!thread_.joinable()) return;
    deadline_ns_.store(NowNs() + grace_ns);
    thread_.join();
  }

  const std::vector<double>& read_ms() const { return read_ms_; }
  const std::vector<uint64_t>& complete_at_ns() const {
    return complete_at_ns_;
  }
  /// CPU the reader thread itself used (kept out of cpu_ns_per_report).
  double cpu_ns() const { return cpu_ns_; }

 private:
  void Loop() {
    const double cpu_start = ThreadCpuNs();
    size_t pending = 0;
    std::vector<uint64_t> counts;
    while (pending < complete_at_ns_.size()) {
      const uint64_t start = NowNs();
      const std::vector<capp::SlotAggregate> aggregates =
          collector_.PopulationSlotAggregates();
      capp::SlotAggregate pooled;
      const size_t span = aggregates.size();
      for (size_t t = span - std::min(span, window_); t < span; ++t) {
        pooled.Merge(aggregates[t]);
      }
      checksum_ += pooled.Mean();
      const uint64_t end = NowNs();
      read_ms_.push_back(static_cast<double>(end - start) * 1e-6);
      counts.resize(span);
      for (size_t t = 0; t < span; ++t) counts[t] = aggregates[t].Count();
      for (size_t t = pending; t < complete_at_ns_.size(); ++t) {
        if (complete_at_ns_[t] == 0 && SlotComplete(counts, 1, t, users_)) {
          complete_at_ns_[t] = end;
        }
      }
      while (pending < complete_at_ns_.size() &&
             complete_at_ns_[pending] != 0) {
        ++pending;
      }
      const uint64_t deadline = deadline_ns_.load();
      if (deadline != 0 && end > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    cpu_ns_ = ThreadCpuNs() - cpu_start;
  }

  const capp::CollectorBackend& collector_;
  const uint64_t users_;
  const size_t window_;
  std::vector<double> read_ms_;
  std::vector<uint64_t> complete_at_ns_;
  double checksum_ = 0.0;
  double cpu_ns_ = 0.0;
  std::atomic<uint64_t> deadline_ns_{0};
  std::thread thread_;  // last: starts after every member it reads
};

struct PassResult {
  bool ok = false;
  uint64_t stream_digest = 0;
  uint64_t collector_digest = 0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_ns = 0.0;
  double reports = 0.0;
  double slot_mse = 0.0;
  std::vector<double> lag_ms;
  std::vector<double> read_ms;
};

// One Fleet::Create + Fleet::Run, optionally with the live reader.
PassResult RunPass(const capp::EngineConfig& config, bool with_reader,
                   Report& report) {
  PassResult pass;
  report.Attempt(config.num_users);
  // Set-up is the fleet's creation plus the collector pre-sizing that
  // Fleet::Run would otherwise do before its own clock starts.
  const uint64_t create_start = NowNs();
  auto fleet = capp::Fleet::Create(config);
  if (!fleet.ok()) {
    report.Fail("Fleet::Create: " + fleet.status().ToString(),
                config.num_users);
    return pass;
  }
  fleet->backend().ReserveUsers(config.num_users);
  pass.setup_s = SecondsSince(create_start);
  std::optional<AggregateReader> reader;
  const double cpu_start = SelfCpuNs();
  const uint64_t run_start = NowNs();
  if (with_reader) {
    reader.emplace(fleet->collector(), config.num_users, config.num_slots,
                   static_cast<size_t>(config.window));
  }
  auto stats = fleet->Run();
  pass.run_s = SecondsSince(run_start);
  if (reader.has_value()) {
    reader->Finish(2'000'000'000);
    for (uint64_t at : reader->complete_at_ns()) {
      if (at == 0) {
        report.Fail("reader never saw a slot complete");
        continue;
      }
      pass.lag_ms.push_back(static_cast<double>(at - run_start) * 1e-6);
    }
    pass.read_ms = reader->read_ms();
  }
  pass.cpu_ns = SelfCpuNs() - cpu_start -
                (reader.has_value() ? reader->cpu_ns() : 0.0);
  if (!stats.ok()) {
    report.Fail("Fleet::Run: " + stats.status().ToString(),
                config.num_users);
    return pass;
  }
  pass.ok = true;
  pass.stream_digest = stats->stream_digest;
  pass.collector_digest = capp::CollectorStateDigest(fleet->collector());
  pass.reports = static_cast<double>(stats->reports);
  pass.slot_mse = stats->mean_slot_mse;
  return pass;
}

// The composed single-thread pipeline of Fleet::Run's kDirect worker,
// with a span around every public call, timed per block of users.
struct ReplayResult {
  uint64_t stream_digest = 0;
  uint64_t collector_digest = 0;
  double wall_ns = 0.0;
};

ReplayResult Replay(const capp::EngineConfig& config, int smoothing,
                    Tracer& tracer) {
  const uint16_t ingest_span = tracer.Name("engine.ingest");
  tracer.Reserve(config.num_users / kBlock * 5 + 5);

  capp::ShardedCollectorOptions options;
  options.num_shards = config.num_shards;
  options.keep_streams = false;
  auto collector = capp::ShardedCollector::Create(options);
  CAPP_CHECK(collector.ok());
  // Pre-sized before the clock starts, as RunPass does for Fleet::Run.
  collector->ReserveUsers(config.num_users);
  FleetSideReplay fleet(config, smoothing, kBlock, tracer);

  ReplayResult result;
  const uint64_t start = NowNs();
  for (uint64_t first = 0; first < config.num_users; first += kBlock) {
    const uint64_t end = std::min<uint64_t>(config.num_users, first + kBlock);
    CAPP_CHECK(fleet.Block(first, end, ingest_span,
                           [&](uint64_t uid, std::span<const double> run) {
                             collector->IngestUserRun(uid, 0, run);
                           }));
  }
  result.wall_ns = static_cast<double>(NowNs() - start);
  result.stream_digest = fleet.stream_digest();
  result.collector_digest = capp::CollectorStateDigest(*collector);
  return result;
}

// Percentiles are taken per pass and reported as their median over
// passes. Every slot of a whole-stream pass completes at once, so a pass's
// lag p50 and p95 coincide.
void ReportEndToEnd(const std::vector<PassResult>& passes, Report& report) {
  std::vector<double> rates, cpu, setup, mse, lag50, lag95, read50, read95;
  for (const PassResult& pass : passes) {
    if (!pass.ok) continue;
    rates.push_back(pass.reports / pass.run_s);
    cpu.push_back(pass.cpu_ns / pass.reports);
    setup.push_back(pass.setup_s);
    mse.push_back(pass.slot_mse);
    lag50.push_back(Percentile(pass.lag_ms, 50));
    lag95.push_back(Percentile(pass.lag_ms, 95));
    read50.push_back(Percentile(pass.read_ms, 50));
    read95.push_back(Percentile(pass.read_ms, 95));
  }
  const double rate = Median(rates);
  report.Set("reports_per_s", rate, "1/s");
  // A closed loop sustains exactly what it completes; d = 1, so cells are
  // reports.
  report.Set("sustained_cells_per_s", rate, "1/s");
  report.Set("cpu_ns_per_report", Median(cpu), "ns");
  report.Set("setup_s", Median(setup), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("slot_mse", Median(mse), "mse");
  report.Set("publish_lag_p50_ms", Median(lag50), "ms");
  report.Set("publish_lag_p95_ms", Median(lag95), "ms");
  report.Set("read_p50_ms", Median(read50), "ms");
  report.Set("read_p95_ms", Median(read95), "ms");
  report.Detail("passes", static_cast<double>(rates.size()));
  report.Detail("publish_lag_samples_per_pass", static_cast<double>(kSlots));
  const size_t reads = passes.back().read_ms.size();
  report.Detail("read_samples_last_pass", static_cast<double>(reads));
  report.Detail("read_highest_supported_pct",
                HighestSupportedPercentile(reads));
}

}  // namespace

void RunFleetDirect(const Args& args, Report& report) {
  // Measured passes run nproc - 1 workers beside the live reader, so the
  // process keeps nproc busy threads: with a worker on every core the
  // reader's tail measured preemption (p95 varying 20% run to run), not
  // the collector. The warm-up pass runs one worker per core.
  const int threads = HardwareThreads();
  const capp::EngineConfig config =
      Config(args.seed, std::max(1, threads - 1));
  report.Detail("users", kUsers);
  report.Detail("slots", kSlots);
  report.Detail("threads", config.num_threads);

  // Warm-up pass (discarded); its digests are the run's reference.
  const PassResult warm =
      RunPass(Config(args.seed, threads), /*with_reader=*/false, report);
  if (!warm.ok) return;
  report.DetailHex("stream_digest", warm.stream_digest);
  report.DetailHex("collector_digest", warm.collector_digest);

  // Oracle: the same fleet on one thread publishes bit-identical streams.
  const PassResult single = RunPass(Config(args.seed, 1), false, report);
  report.Check(single.ok && single.stream_digest == warm.stream_digest &&
                   single.collector_digest == warm.collector_digest,
               "fleet_direct digest differs between 1 and " +
                   std::to_string(threads) + " threads");

  if (args.trace) {
    // The live pass gives the read-side layer numbers under ingest.
    const PassResult live = RunPass(config, true, report);
    report.Set("engine.snapshot_us", Percentile(live.read_ms, 50) * 1e3,
               "us");
    // The closure's reference is the program itself: Fleet::Run on one
    // thread, untraced, alternating with an untraced and a traced replay.
    auto probe = capp::Fleet::Create(config);
    CAPP_CHECK(probe.ok());
    const double reports = static_cast<double>(kUsers * kSlots);
    std::vector<Ledger> ledgers;
    std::vector<double> program_ns;
    std::vector<double> untraced_ns;
    for (int i = 0; i < kReplayRounds; ++i) {
      const PassResult program = RunPass(Config(args.seed, 1), false, report);
      report.Check(program.ok && program.stream_digest == warm.stream_digest,
                   "single-thread Fleet::Run digest differs");
      program_ns.push_back(program.run_s * 1e9);
      Tracer untraced(false);
      const ReplayResult reference =
          Replay(config, probe->smoothing_window(), untraced);
      report.Check(reference.stream_digest == warm.stream_digest,
                   "untraced replay digest differs from the untraced run");
      untraced_ns.push_back(reference.wall_ns);
      Tracer tracer(true);
      const ReplayResult replay =
          Replay(config, probe->smoothing_window(), tracer);
      report.Check(replay.stream_digest == warm.stream_digest &&
                       replay.collector_digest == warm.collector_digest,
                   "traced replay digests differ from the untraced run");
      if (i == 0) WriteChromeTrace(tracer, TracePath(args), 20000);
      ledgers.push_back(Summarize(tracer, replay.wall_ns));
    }
    ReportLedger(report, ledgers, program_ns,
                 "single-thread Fleet::Run", untraced_ns, reports);
    return;
  }

  // peak_rss_mb covers the measured passes, not the warm-up or oracle.
  StartPeakRssWindow(report);
  std::vector<PassResult> passes;
  const uint64_t start = NowNs();
  while (passes.empty() || SecondsSince(start) < args.seconds) {
    passes.push_back(RunPass(config, /*with_reader=*/true, report));
    const PassResult& pass = passes.back();
    if (pass.ok) {
      report.Check(pass.stream_digest == warm.stream_digest &&
                       pass.collector_digest == warm.collector_digest,
                   "fleet_direct pass digest differs from the warm-up");
    }
  }
  ReportEndToEnd(passes, report);
}

}  // namespace perfbench
