// slot_stream_d4: open loop, in process, reads beside writes. A
// TransportHub with kSocket loopback, two consumers and owned shards feeds
// a d = 4 budget-split collector with the histogram tier on. One generator
// thread sends slot by slot: at each tick every user publishes its 1-slot,
// d = 4 run as one 0xC6 frame, so the layers run once per cell group
// instead of once per stream. Ticks follow a fixed ladder of absolute
// rates. A reader thread polls the live aggregates and histograms and runs
// AnalyzeWindow as soon as a window's slots are complete. Reports are
// perturbed during set-up, so the schedule measures the collector. It is
// the only workload that runs multidim, 0xC6 frames, the dims transpose,
// the histogram tier, seqlock reads and analysis.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "analysis/streaming_analytics.h"
#include "core/math_utils.h"
#include "engine/fleet.h"
#include "engine/thread_pool.h"
#include "multidim/multidim_perturber.h"
#include "socket_sink.h"
#include "stream/smoothing.h"
#include "transport/transport_hub.h"
#include "transport/wire_format.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kUsers = 10000;
constexpr size_t kDims = 4;
constexpr int kWindow = 10;
constexpr double kEpsilon = 1.0;
constexpr int kHistogramBuckets = 32;
constexpr size_t kRunsPerChunk = 64;  // TransportOptions::max_batch_runs
constexpr int kSetups = 3;
// The fixed reference rate of the publish-lag and read metrics, the lag
// limit of the ladder, and the ladder itself (cells/s, an eighth of an
// octave apart). All absolute, so every commit runs the same schedule.
constexpr double kReferenceRate = 4.0e6;
constexpr double kLagLimitMs = 50.0;
// The reader refreshes its analysis at most this often, as a dashboard
// would; completeness polls in between are cheap aggregate snapshots.
constexpr uint64_t kMinReadIntervalNs = 10'000'000;

std::vector<double> Ladder() {
  std::vector<double> rates;
  for (int i = 0; i <= 48; ++i) {
    rates.push_back(1.0e6 * std::pow(2.0, i / 8.0));
  }
  return rates;
}

const size_t kSlots = SlotsForP95();

double EpsilonPerSlot() {
  return kEpsilon / (static_cast<double>(kDims) * kWindow);
}

capp::SlotHistogramOptions HistogramOptions() {
  auto options = capp::StreamingAnalyzer::CollectorHistogramOptions(
      EpsilonPerSlot(), kHistogramBuckets);
  CAPP_CHECK(options.ok());
  return *options;
}

capp::ShardedCollectorOptions CollectorOptions(bool single_writer,
                                               bool histogram) {
  capp::ShardedCollectorOptions options;
  options.keep_streams = false;
  options.dims = kDims;
  options.single_writer = single_writer;
  if (histogram) options.histogram = HistogramOptions();
  return options;
}

uint64_t HandshakeFingerprint() {
  return capp::StreamHandshakeFingerprint(kEpsilon, kWindow, kDims,
                                          capp::MultidimStrategy::kBudgetSplit);
}

capp::StreamingAnalyzer MakeAnalyzer() {
  capp::StreamingAnalyzerOptions options;
  options.epsilon_per_slot = EpsilonPerSlot();
  options.histogram_buckets = kHistogramBuckets;
  options.window = kWindow;
  auto analyzer = capp::StreamingAnalyzer::Create(options);
  CAPP_CHECK(analyzer.ok());
  return std::move(*analyzer);
}

// The pre-perturbed population: what the fleet's d = 4 devices would
// publish, generated with the fleet's own per-user seeds.
struct Population {
  std::vector<double> by_slot;    // per slot, per user, per dim
  std::vector<double> true_mean;  // per (dim, slot), dim-major
  int smoothing = 1;

  std::span<const double> Cells(size_t slot, size_t user) const {
    return {by_slot.data() + (slot * kUsers + user) * kDims, kDims};
  }
  /// Stores one user's dim-major stream in slot order.
  void Store(size_t user, std::span<const double> stream) {
    for (size_t k = 0; k < kDims; ++k) {
      for (size_t t = 0; t < kSlots; ++t) {
        by_slot[(t * kUsers + user) * kDims + k] = stream[k * kSlots + t];
      }
    }
  }
  /// One user's whole stream, dim-major (the 0xC6 payload order).
  void Stream(size_t user, std::vector<double>& out) const {
    out.resize(kDims * kSlots);
    for (size_t k = 0; k < kDims; ++k) {
      for (size_t t = 0; t < kSlots; ++t) {
        out[k * kSlots + t] = by_slot[(t * kUsers + user) * kDims + k];
      }
    }
  }
};

capp::MultidimPerturber MakePerturber() {
  auto perturber = capp::MultidimPerturber::Create(
      kDims, capp::MultidimStrategy::kBudgetSplit, {kEpsilon, kWindow},
      capp::AlgorithmKind::kCapp);
  CAPP_CHECK(perturber.ok());
  return std::move(*perturber);
}

Population PrePerturb(uint64_t seed) {
  Population population;
  population.by_slot.resize(kUsers * kDims * kSlots);
  std::vector<double> truth_sum(kDims * kSlots, 0.0);
  const int threads = HardwareThreads();
  constexpr size_t kChunk = 256;
  const size_t chunks = (kUsers + kChunk - 1) / kChunk;
  std::vector<std::vector<double>> chunk_truth(chunks);
  capp::ParallelFor(chunks, threads, [&](size_t chunk) {
    capp::MultidimPerturber perturber = MakePerturber();
    std::vector<double> truth;
    std::vector<double> out;
    chunk_truth[chunk].assign(kDims * kSlots, 0.0);
    for (size_t u = chunk * kChunk; u < std::min(kUsers, (chunk + 1) * kChunk);
         ++u) {
      capp::Rng rng(capp::UserStreamSeed(seed, u, 0));
      capp::GenerateUserSignalMultiInto(capp::SignalKind::kSinusoid, kDims,
                                        kSlots, rng, truth);
      perturber.ResetForUser(capp::UserStreamSeed(seed, u, 1));
      perturber.PerturbStream(truth, kSlots, out);
      population.Store(u, out);
      for (size_t i = 0; i < truth.size(); ++i) {
        chunk_truth[chunk][i] += truth[i];
      }
    }
  });
  for (const auto& sums : chunk_truth) {
    for (size_t i = 0; i < sums.size(); ++i) truth_sum[i] += sums[i];
  }
  population.true_mean.resize(kDims * kSlots);
  for (size_t i = 0; i < truth_sum.size(); ++i) {
    population.true_mean[i] = truth_sum[i] / static_cast<double>(kUsers);
  }
  population.smoothing = MakePerturber().publication_smoothing_window();
  return population;
}

// Slices dimension `dim` of the window [begin, begin + len) out of an
// interleaved snapshot and analyzes it.
bool AnalyzeDimWindow(const capp::StreamingAnalyzer& analyzer,
                      const std::vector<std::vector<uint64_t>>& histograms,
                      const std::vector<capp::SlotAggregate>& aggregates,
                      size_t dim, size_t begin, size_t len, double* sink) {
  std::vector<std::vector<uint64_t>> rows(len);
  std::vector<capp::SlotAggregate> cells(len);
  for (size_t i = 0; i < len; ++i) {
    rows[i] = histograms[(begin + i) * kDims + dim];
    cells[i] = aggregates[(begin + i) * kDims + dim];
  }
  auto window = analyzer.AnalyzeWindow(rows, cells, 0, len);
  if (!window.ok()) return false;
  *sink += window->crowd_mean;
  return true;
}

// The live reader: polls the aggregates every 200 us to see slots
// complete, and when the complete prefix has advanced (at most once per
// kMinReadIntervalNs) snapshots the histograms and analyzes the sliding
// window that ends at the newest complete slot, one attribute per read in
// turn, so every attribute is analyzed every d reads.
class SlotReader {
 public:
  explicit SlotReader(const capp::ShardedCollector& collector)
      : collector_(collector),
        analyzer_(MakeAnalyzer()),
        complete_at_ns_(kSlots, 0) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~SlotReader() { Finish(0); }
  SlotReader(const SlotReader&) = delete;
  SlotReader& operator=(const SlotReader&) = delete;

  void Finish(uint64_t grace_ns) {
    if (!thread_.joinable()) return;
    deadline_ns_.store(NowNs() + grace_ns);
    thread_.join();
  }

  const std::vector<uint64_t>& complete_at_ns() const {
    return complete_at_ns_;
  }
  const std::vector<double>& read_ms() const { return read_ms_; }
  const std::vector<double>& snapshot_us() const { return snapshot_us_; }
  uint64_t failures() const { return failures_; }
  /// CPU the reader thread itself used (kept out of cpu_ns_per_report).
  double cpu_ns() const { return cpu_ns_; }

 private:
  void Loop() {
    const double cpu_start = ThreadCpuNs();
    size_t prefix = 0;
    size_t analyzed = 0;  // complete prefix at the last read
    uint64_t last_read = 0;
    std::vector<uint64_t> counts;
    while (prefix < kSlots) {
      const uint64_t start = NowNs();
      const std::vector<capp::SlotAggregate> aggregates =
          collector_.PopulationSlotAggregates();
      const uint64_t seen = NowNs();
      counts.resize(aggregates.size());
      for (size_t i = 0; i < aggregates.size(); ++i) {
        counts[i] = aggregates[i].Count();
      }
      for (size_t t = prefix; t < kSlots; ++t) {
        if (complete_at_ns_[t] == 0 &&
            SlotComplete(counts, kDims, t, kUsers)) {
          complete_at_ns_[t] = seen;
        }
      }
      while (prefix < kSlots && complete_at_ns_[prefix] != 0) ++prefix;
      if (prefix > analyzed &&
          (prefix == kSlots || start - last_read >= kMinReadIntervalNs)) {
        analyzed = prefix;
        last_read = start;
        auto histograms = collector_.PopulationSlotHistograms();
        snapshot_us_.push_back(static_cast<double>(NowNs() - start) * 1e-3);
        const size_t len = std::min<size_t>(prefix, kWindow);
        if (!histograms.ok() ||
            !AnalyzeDimWindow(analyzer_, *histograms, aggregates,
                              (prefix - 1) % kDims, prefix - len, len,
                              &sink_)) {
          ++failures_;
        }
        read_ms_.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const uint64_t deadline = deadline_ns_.load();
      if (deadline != 0 && NowNs() > deadline) break;
    }
    cpu_ns_ = ThreadCpuNs() - cpu_start;
  }

  const capp::ShardedCollector& collector_;
  const capp::StreamingAnalyzer analyzer_;
  std::vector<uint64_t> complete_at_ns_;
  std::vector<double> read_ms_;
  std::vector<double> snapshot_us_;
  uint64_t failures_ = 0;
  double sink_ = 0.0;
  double cpu_ns_ = 0.0;
  std::atomic<uint64_t> deadline_ns_{0};
  std::thread thread_;  // last: starts after every member it reads
};

struct PassResult {
  bool ok = false;
  double cells_per_s = 0.0;
  double cpu_ns = 0.0;
  double drain_ms = 0.0;
  uint64_t digest = 0;
  uint64_t seqlock_retries = 0;
  capp::TransportStats transport;
  std::vector<double> lag_ms;
  std::vector<double> late_ms;
  std::vector<double> read_ms;
  std::vector<double> snapshot_us;
};

// One schedule of every slot through a fresh hub and collector. `rate`
// 0 sends every tick as soon as the previous one is out (capacity).
PassResult RunPass(const Population& population, double rate,
                   Report& report) {
  PassResult pass;
  const double cells = static_cast<double>(kUsers * kDims * kSlots);
  report.Attempt(kUsers * kSlots);
  auto collector = capp::ShardedCollector::Create(CollectorOptions(true, true));
  CAPP_CHECK(collector.ok());
  capp::TransportOptions options;
  options.kind = capp::TransportKind::kSocket;
  options.num_consumers = 2;
  options.shard_affinity = true;
  options.owned_shards = true;
  options.handshake_fingerprint = HandshakeFingerprint();
  auto hub = capp::TransportHub::Create(&*collector, options);
  if (!hub.ok()) {
    report.Fail("TransportHub::Create: " + hub.status().ToString(),
                kUsers * kSlots);
    return pass;
  }
  std::optional<SlotReader> reader(std::in_place, *collector);
  const double tick_ns =
      rate > 0 ? static_cast<double>(kUsers * kDims) / rate * 1e9 : 0.0;
  const double cpu_start = SelfCpuNs();
  const uint64_t start = NowNs();
  std::vector<uint64_t> due(kSlots);
  {
    capp::TransportHub::Producer producer = (*hub)->MakeProducer();
    for (size_t t = 0; t < kSlots; ++t) {
      due[t] = start + static_cast<uint64_t>(tick_ns * static_cast<double>(t));
      if (rate > 0) {
        while (NowNs() < due[t]) {
          const uint64_t left = due[t] - NowNs();
          if (left > 200'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(left - 100'000));
          }
        }
      }
      const uint64_t now = NowNs();
      pass.late_ms.push_back(
          static_cast<double>(now - std::min(now, due[t])) * 1e-6);
      for (size_t u = 0; u < kUsers; ++u) {
        producer.Publish(u, t, kDims, population.Cells(t, u));
      }
      producer.Flush();
    }
  }
  const uint64_t generated = NowNs();
  const capp::Status drained = (*hub)->Drain();
  const uint64_t end = NowNs();
  pass.drain_ms = static_cast<double>(end - generated) * 1e-6;
  pass.cells_per_s = cells / (static_cast<double>(end - start) * 1e-9);
  reader->Finish(5'000'000'000);
  pass.cpu_ns = SelfCpuNs() - cpu_start - reader->cpu_ns();
  pass.transport = (*hub)->stats();
  if (!drained.ok()) {
    report.Fail("Drain: " + drained.ToString(), kUsers * kSlots);
    return pass;
  }
  report.Attempt(reader->read_ms().size());
  if (reader->failures() > 0) {
    report.Fail("AnalyzeWindow failed on a complete window",
                reader->failures());
  }
  for (size_t t = 0; t < kSlots; ++t) {
    const uint64_t at = reader->complete_at_ns()[t];
    if (at == 0) {
      report.Fail("reader never saw slot " + std::to_string(t) + " complete");
      return pass;
    }
    pass.lag_ms.push_back(static_cast<double>(at - std::min(at, due[t])) *
                          1e-6);
  }
  pass.read_ms = reader->read_ms();
  pass.snapshot_us = reader->snapshot_us();
  pass.seqlock_retries = collector->seqlock_read_retries();
  pass.digest = capp::CollectorStateDigest(*collector);
  pass.ok = true;
  return pass;
}

RungResult Rung(const PassResult& pass) {
  RungResult rung;
  rung.failed = !pass.ok;
  rung.lag_p95_ms = Percentile(pass.lag_ms, 95);
  rung.backlog_grows = BacklogGrows(pass.lag_ms, kLagLimitMs);
  return rung;
}

// Whole-stream direct ingest of the same reports: the slot-cadence
// oracle, and the published means for slot_mse.
struct Oracle {
  uint64_t whole_stream_digest = 0;
  uint64_t fleet_digest = 0;
  bool fleet_ok = false;
  double slot_mse = 0.0;
};

Oracle MakeOracle(const Population& population, uint64_t seed) {
  Oracle oracle;
  auto collector =
      capp::ShardedCollector::Create(CollectorOptions(false, true));
  CAPP_CHECK(collector.ok());
  std::vector<double> stream;
  for (size_t u = 0; u < kUsers; ++u) {
    population.Stream(u, stream);
    collector->IngestUserRun(u, 0, kDims, stream);
  }
  oracle.whole_stream_digest = capp::CollectorStateDigest(*collector);

  // Published per-slot means against the truth, as Fleet::Run scores them:
  // each attribute's slot means smoothed on their own.
  const std::vector<capp::SlotAggregate> cells =
      collector->PopulationSlotAggregates();
  capp::KahanSum mse;
  for (size_t k = 0; k < kDims; ++k) {
    std::vector<double> means(kSlots);
    for (size_t t = 0; t < kSlots; ++t) means[t] = cells[t * kDims + k].Mean();
    auto published = capp::SimpleMovingAverage(means, population.smoothing);
    CAPP_CHECK(published.ok());
    for (size_t t = 0; t < kSlots; ++t) {
      const double err = (*published)[t] - population.true_mean[k * kSlots + t];
      mse.Add(err * err);
    }
  }
  oracle.slot_mse = mse.Total() / static_cast<double>(kDims * kSlots);

  // The program's own d = 4 fleet publishes exactly these reports.
  capp::EngineConfig config =
      FleetConfig(seed, kUsers, kSlots, /*threads=*/0);
  config.epsilon = kEpsilon;
  config.window = kWindow;
  config.dims = kDims;
  config.multidim_strategy = capp::MultidimStrategy::kBudgetSplit;
  config.analytics.enabled = true;
  config.analytics.histogram_buckets = kHistogramBuckets;
  auto fleet = capp::Fleet::Create(config);
  if (fleet.ok() && fleet->Run().ok()) {
    oracle.fleet_ok = true;
    oracle.fleet_digest = capp::CollectorStateDigest(fleet->collector());
  }
  return oracle;
}

// The composed single-thread pipeline: pre-perturbation, then per tick
// the producer's encode, the socket write, the server's peek, decode and
// owned-shard ingest, and the reader's snapshot + AnalyzeWindow. Frame-
// level calls are timed per 64-frame chunk, as the producer stages them.
// Its only spans outside the layers are the driver's own tick and chunk.
struct ReplayResult {
  bool ok = false;
  uint64_t digest = 0;
  double wall_ns = 0.0;
  double reads = 0.0;
};

ReplayResult Replay(uint64_t seed, Tracer& tracer) {
  const uint16_t tick_span = tracer.Name("driver.tick");
  const uint16_t chunk_span = tracer.Name("driver.chunk");
  const uint16_t synth_span = tracer.Name("engine.synth");
  const uint16_t perturb_span = tracer.Name("multidim.perturb");
  const uint16_t encode_span = tracer.Name("transport.encode");
  const uint16_t write_span = tracer.Name("transport.socket_write");
  const uint16_t peek_span = tracer.Name("transport.peek");
  const uint16_t decode_span = tracer.Name("transport.decode");
  const uint16_t ingest_span = tracer.Name("engine.ingest_owned_d4");
  const uint16_t snapshot_span = tracer.Name("engine.snapshot");
  const uint16_t window_span = tracer.Name("analysis.window");
  tracer.Reserve(kUsers * 2 + kSlots * (kUsers / kRunsPerChunk + 2) * 10);

  ReplayResult result;
  auto sink = SocketSink::Open(kDims, HandshakeFingerprint());
  auto collector = capp::ShardedCollector::Create(CollectorOptions(true, true));
  if (sink == nullptr || !collector.ok()) return result;
  const capp::StreamingAnalyzer analyzer = MakeAnalyzer();
  capp::MultidimPerturber perturber = MakePerturber();
  Population population;
  population.by_slot.resize(kUsers * kDims * kSlots);
  std::vector<double> truth;
  std::vector<double> out;
  std::vector<uint8_t> chunk;
  std::vector<size_t> frame_sizes;
  std::vector<capp::WireFrameHeader> headers;
  std::vector<double> values;
  std::vector<double> decoded;
  std::vector<uint64_t> decoded_users;
  bool ok = true;
  double sink_value = 0.0;

  const auto flush_chunk = [&](uint32_t run) {
    Tracer::Scope span(tracer, chunk_span, run);
    const size_t frames = frame_sizes.size();
    {
      Tracer::Scope write(tracer, write_span, run);
      ok = ok && sink->client().WriteChunk(chunk).ok();
    }
    headers.resize(frames);
    {
      Tracer::Scope peek(tracer, peek_span, run);
      std::span<const uint8_t> rest(chunk);
      for (size_t i = 0; i < frames && ok; ++i) {
        auto header = capp::PeekUserRunFrame(rest);
        ok = header.ok();
        if (ok) {
          headers[i] = *header;
          rest = rest.subspan(header->frame_bytes);
        }
      }
    }
    decoded.resize(frames * kDims);
    decoded_users.resize(frames);
    {
      Tracer::Scope decode(tracer, decode_span, run);
      size_t offset = 0;
      for (size_t i = 0; i < frames && ok; ++i) {
        uint64_t base_slot = 0;
        uint64_t dims = 0;
        ok = capp::DecodeUserRunFrame(
                 std::span(chunk).subspan(offset, headers[i].frame_bytes),
                 &decoded_users[i], &base_slot, &dims, values)
                 .ok() &&
             dims == kDims && base_slot == run && values.size() == kDims;
        if (ok) {
          std::copy(values.begin(), values.end(),
                    decoded.begin() + static_cast<ptrdiff_t>(i * kDims));
        }
        offset += headers[i].frame_bytes;
      }
    }
    {
      Tracer::Scope ingest(tracer, ingest_span, run);
      for (size_t i = 0; i < frames; ++i) {
        collector->IngestUserRun(decoded_users[i], run, kDims,
                                 std::span(decoded).subspan(i * kDims, kDims));
      }
    }
    chunk.clear();
    frame_sizes.clear();
  };

  const uint64_t start = NowNs();
  for (size_t u = 0; u < kUsers; ++u) {
    const auto run = static_cast<uint32_t>(u);
    {
      Tracer::Scope span(tracer, synth_span, run);
      capp::Rng rng(capp::UserStreamSeed(seed, u, 0));
      capp::GenerateUserSignalMultiInto(capp::SignalKind::kSinusoid, kDims,
                                        kSlots, rng, truth);
    }
    {
      Tracer::Scope span(tracer, perturb_span, run);
      perturber.ResetForUser(capp::UserStreamSeed(seed, u, 1));
      perturber.PerturbStream(truth, kSlots, out);
    }
    population.Store(u, out);
  }
  for (size_t t = 0; t < kSlots; ++t) {
    const auto run = static_cast<uint32_t>(t);
    Tracer::Scope tick(tracer, tick_span, run);
    for (size_t first = 0; first < kUsers; first += kRunsPerChunk) {
      {
        Tracer::Scope encode(tracer, encode_span, run);
        for (size_t u = first; u < std::min(kUsers, first + kRunsPerChunk);
             ++u) {
          const size_t before = chunk.size();
          capp::AppendMultiDimRunFrame(u, t, kDims, population.Cells(t, u),
                                       chunk);
          frame_sizes.push_back(chunk.size() - before);
        }
      }
      flush_chunk(run);
    }
    std::vector<capp::SlotAggregate> aggregates;
    capp::Result<std::vector<std::vector<uint64_t>>> histograms =
        capp::Status::Internal("unset");
    {
      Tracer::Scope snapshot(tracer, snapshot_span, run);
      aggregates = collector->PopulationSlotAggregates();
      histograms = collector->PopulationSlotHistograms();
    }
    {
      Tracer::Scope window(tracer, window_span, run);
      const size_t len = std::min<size_t>(t + 1, kWindow);
      ok = ok && histograms.ok() &&
           AnalyzeDimWindow(analyzer, *histograms, aggregates, t % kDims,
                            t + 1 - len, len, &sink_value);
    }
    result.reads += 1;
  }
  result.wall_ns = static_cast<double>(NowNs() - start);
  ok = ok && sink->Close().ok();
  result.ok = ok && std::isfinite(sink_value);
  result.digest = capp::CollectorStateDigest(*collector);
  return result;
}

// Side measurements, kept out of the ledger replay so they cannot disturb
// it: Crc32 over every 0xC6 frame (work that sits inside encode and
// decode), and the owned-shard ingest of the same cells with the
// histogram tier on and off, alternating which goes first per chunk.
void SideProbes(const Population& population, uint64_t digest,
                Report& report) {
  auto hist = capp::ShardedCollector::Create(CollectorOptions(true, true));
  auto nohist = capp::ShardedCollector::Create(CollectorOptions(true, false));
  CAPP_CHECK(hist.ok() && nohist.ok());
  std::vector<uint8_t> chunk;
  std::vector<size_t> frame_sizes;
  double crc_ns = 0.0, hist_ns = 0.0, nohist_ns = 0.0;
  uint32_t crc = 0;
  const auto ingest = [&](capp::ShardedCollector& collector, size_t t,
                          size_t first, size_t end) {
    const uint64_t start = NowNs();
    for (size_t u = first; u < end; ++u) {
      collector.IngestUserRun(u, t, kDims, population.Cells(t, u));
    }
    return static_cast<double>(NowNs() - start);
  };
  for (size_t t = 0; t < kSlots; ++t) {
    for (size_t first = 0; first < kUsers; first += kRunsPerChunk) {
      const size_t end = std::min(kUsers, first + kRunsPerChunk);
      chunk.clear();
      frame_sizes.clear();
      for (size_t u = first; u < end; ++u) {
        const size_t before = chunk.size();
        capp::AppendMultiDimRunFrame(u, t, kDims, population.Cells(t, u),
                                     chunk);
        frame_sizes.push_back(chunk.size() - before);
      }
      const uint64_t start = NowNs();
      size_t offset = 0;
      for (size_t size : frame_sizes) {
        crc ^= capp::Crc32(std::span(chunk).subspan(offset, size - 4));
        offset += size;
      }
      crc_ns += static_cast<double>(NowNs() - start);
      if ((first / kRunsPerChunk) % 2 == 0) {
        hist_ns += ingest(*hist, t, first, end);
        nohist_ns += ingest(*nohist, t, first, end);
      } else {
        nohist_ns += ingest(*nohist, t, first, end);
        hist_ns += ingest(*hist, t, first, end);
      }
    }
  }
  const double cells = static_cast<double>(kUsers * kDims * kSlots);
  report.Set("transport.crc_ns", crc_ns / cells, "ns");
  report.Set("analysis.histogram_ns", (hist_ns - nohist_ns) / cells, "ns");
  report.Detail("probe.crc_xor", crc);
  report.Check(capp::CollectorStateDigest(*hist) == digest,
               "side-probe ingest digest differs from whole-stream ingest");
}

void AddTransportLayers(const PassResult& pass, Report& report) {
  const capp::TransportStats& stats = pass.transport;
  ReportTransport(report, static_cast<double>(kUsers * kDims * kSlots),
                  stats.push_stalls, stats.pop_waits, stats.consumer_runs,
                  stats, pass.drain_ms);
  report.Set("engine.seqlock_retries",
             static_cast<double>(pass.seqlock_retries), "count");
  report.Set("engine.snapshot_us", Percentile(pass.snapshot_us, 50), "us");
}

}  // namespace

void RunSlotStream(const Args& args, Report& report) {
  report.Detail("users", kUsers);
  report.Detail("dims", kDims);
  report.Detail("slots", kSlots);
  report.Detail("reference_rate_cells_per_s", kReferenceRate);
  report.Detail("lag_limit_ms", kLagLimitMs);

  std::vector<double> setup_s;
  Population population;
  for (int i = 0; i < kSetups; ++i) {
    population = Population();  // frees the last copy before the next
    const uint64_t start = NowNs();
    population = PrePerturb(args.seed);
    setup_s.push_back(SecondsSince(start));
  }
  const Oracle oracle = MakeOracle(population, args.seed);
  report.DetailHex("collector_digest", oracle.whole_stream_digest);
  report.Check(oracle.fleet_ok &&
                   oracle.fleet_digest == oracle.whole_stream_digest,
               "pre-perturbed reports differ from the d=4 fleet's");
  const auto check_pass = [&](const PassResult& pass) {
    if (pass.ok) {
      report.Check(pass.digest == oracle.whole_stream_digest,
                   "slot-cadence digest differs from whole-stream ingest");
    }
  };

  // Warm-up round (discarded but checked).
  check_pass(RunPass(population, 0.0, report));
  check_pass(RunPass(population, kReferenceRate, report));

  if (args.trace) {
    const PassResult live = RunPass(population, 0.0, report);
    check_pass(live);
    AddTransportLayers(live, report);
    const PassResult reference = RunPass(population, kReferenceRate, report);
    check_pass(reference);
    report.Set("driver.gen_late_p95_ms", Percentile(reference.late_ms, 95),
               "ms");
    // The program has no single-thread run (the hub's producer, socket
    // reader and consumers are threads of their own), so the closure is
    // against the untraced replay.
    std::vector<Ledger> ledgers;
    std::vector<double> reference_ns;
    double reads = 0.0;
    for (int i = 0; i < kReplayRounds; ++i) {
      Tracer untraced(false);
      const ReplayResult reference = Replay(args.seed, untraced);
      Tracer tracer(true);
      const ReplayResult replay = Replay(args.seed, tracer);
      report.Check(reference.ok && replay.ok, "replay pipeline failed");
      report.Check(replay.digest == oracle.whole_stream_digest &&
                       reference.digest == oracle.whole_stream_digest,
                   "traced replay digest differs from the untraced run");
      reference_ns.push_back(reference.wall_ns);
      reads = replay.reads;
      if (i == 0) WriteChromeTrace(tracer, TracePath(args), 20000);
      ledgers.push_back(Summarize(tracer, replay.wall_ns));
    }
    const double cells = static_cast<double>(kUsers * kDims * kSlots);
    const Ledger& ledger =
        ledgers[ReportLedger(report, ledgers, reference_ns, "untraced replay",
                             reference_ns, cells)];
    const auto& totals = ledger.total_ns;
    SideProbes(population, oracle.whole_stream_digest, report);
    report.Set("analysis.window_ms",
               static_cast<double>(totals.at("analysis.window")) * 1e-6 /
                   reads,
               "ms");
    return;
  }

  // Interleaved rounds until the time is up: one ladder search, two
  // capacity passes, one reference-rate pass. Every figure is a median
  // over rounds or passes; the percentiles are taken per pass (200 slots,
  // 10 lag samples beyond p95) first.
  // peak_rss_mb covers the measured passes (the population they send
  // included), not the set-ups, the oracle or the warm-up.
  StartPeakRssWindow(report);
  const std::vector<double> ladder = Ladder();
  std::vector<double> sustained, rates, cpu, lag50, lag95, read50, read95;
  const uint64_t start = NowNs();
  while (rates.empty() || SecondsSince(start) < args.seconds) {
    size_t probes = 0;
    sustained.push_back(SustainedRate(
        ladder, kLagLimitMs,
        [&](double rate) {
          const PassResult pass = RunPass(population, rate, report);
          check_pass(pass);
          return Rung(pass);
        },
        &probes));
    report.Detail("ladder_probes_per_search", static_cast<double>(probes));
    for (int i = 0; i < 2; ++i) {
      const PassResult capacity = RunPass(population, 0.0, report);
      check_pass(capacity);
      if (capacity.ok) {
        rates.push_back(capacity.cells_per_s);
        cpu.push_back(capacity.cpu_ns /
                      static_cast<double>(kUsers * kDims * kSlots));
      }
    }
    const PassResult reference = RunPass(population, kReferenceRate, report);
    check_pass(reference);
    if (reference.ok) {
      lag50.push_back(Percentile(reference.lag_ms, 50));
      lag95.push_back(Percentile(reference.lag_ms, 95));
      read50.push_back(Percentile(reference.read_ms, 50));
      read95.push_back(Percentile(reference.read_ms, 95));
      report.Detail("read_samples_per_pass",
                    static_cast<double>(reference.read_ms.size()));
    }
  }
  report.Set("reports_per_s", Median(rates), "1/s");
  report.Set("sustained_cells_per_s", Median(sustained), "1/s");
  report.Set("cpu_ns_per_report", Median(cpu), "ns");
  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("slot_mse", oracle.slot_mse, "mse");
  report.Set("publish_lag_p50_ms", Median(lag50), "ms");
  report.Set("publish_lag_p95_ms", Median(lag95), "ms");
  report.Set("read_p50_ms", Median(read50), "ms");
  report.Set("read_p95_ms", Median(read95), "ms");
  report.Detail("capacity_passes", static_cast<double>(rates.size()));
  std::string per_pass = "[";
  for (size_t i = 0; i < rates.size(); ++i) {
    per_pass += (i ? ", " : "") + std::to_string(rates[i] * 1e-6);
  }
  report.detail["capacity_mcells_per_s_per_pass"] = per_pass + "]";
  report.Detail("reference_passes", static_cast<double>(lag95.size()));
  report.Detail("ladder_searches", static_cast<double>(sustained.size()));
  report.Detail("publish_lag_samples_per_pass", static_cast<double>(kSlots));
}

}  // namespace perfbench
