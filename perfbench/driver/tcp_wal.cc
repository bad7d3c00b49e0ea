// tcp_wal: closed loop, two processes -- the repository's end-to-end
// path. This process runs Fleet with kSocket over two striped TCP
// connections into a real tools/collector_server with a WAL
// (--tcp=127.0.0.1:0 --wal-dir=... --consumers=2 --affinity, default
// fdatasync every 1024 frames). The server side bounds it: wire codec,
// socket, routing, mutex ingest and WAL dominate and perturbation is a
// minority, so a transport or storage change shows here and not on
// fleet_direct.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "engine/fleet.h"
#include "socket_sink.h"
#include "storage/wal.h"
#include "transport/wire_format.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr size_t kUsers = 300000;
constexpr size_t kSlots = 50;
constexpr int kFleetThreads = 2;
constexpr int kConnections = 2;
constexpr size_t kRunsPerChunk = 64;    // TransportOptions::max_batch_runs
constexpr size_t kFramesPerSync = 1024;  // the server's default policy
constexpr uint64_t kListenDeadlineNs = 20'000'000'000;
constexpr uint64_t kExitDeadlineNs = 60'000'000'000;

// A collector_server child: stdout on a pipe, reaped with wait4.
class ServerProcess {
 public:
  ~ServerProcess() {
    Kill();
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  bool Launch(const std::string& path, const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(path.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  // Reads stdout until the full listen line appears; returns the port.
  std::optional<int> WaitForListen(uint64_t deadline_ns) {
    static constexpr std::string_view kPrefix =
        "collector_server: listening on tcp 127.0.0.1:";
    size_t scanned = 0;
    while (ReadSome(deadline_ns)) {
      size_t newline;
      while ((newline = output_.find('\n', scanned)) != std::string::npos) {
        const std::string_view line(output_.data() + scanned,
                                    newline - scanned);
        scanned = newline + 1;
        if (!line.starts_with(kPrefix)) continue;
        const std::string_view rest = line.substr(kPrefix.size());
        const size_t digits = rest.find_first_not_of("0123456789");
        if (digits == 0 || digits == std::string_view::npos ||
            rest[digits] != ' ') {
          return std::nullopt;
        }
        return std::stoi(std::string(rest.substr(0, digits)));
      }
    }
    return std::nullopt;
  }

  // Reads stdout to EOF (the server exiting); false on the deadline.
  bool ReadToEof(uint64_t deadline_ns) {
    while (ReadSome(deadline_ns)) {
    }
    return eof_;
  }

  // Blocks in wait4 for the exit status, CPU time and peak RSS.
  bool Reap(int* status, rusage* usage) {
    if (pid_ <= 0) return false;
    pid_t got;
    do {
      got = ::wait4(pid_, status, 0, usage);
    } while (got < 0 && errno == EINTR);
    pid_ = -1;
    return got > 0;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    Reap(&status, &usage);
  }

  const std::string& output() const { return output_; }

 private:
  bool ReadSome(uint64_t deadline_ns) {
    if (eof_) return false;
    const uint64_t now = NowNs();
    if (now >= deadline_ns) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int timeout_ms =
        static_cast<int>(std::min<uint64_t>((deadline_ns - now) / 1'000'000 +
                                                1,
                                            1000));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return NowNs() < deadline_ns;
    char buf[4096];
    const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
    if (got < 0) return errno == EINTR;
    if (got == 0) {
      eof_ = true;
      return false;
    }
    output_.append(buf, static_cast<size_t>(got));
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool eof_ = false;
  std::string output_;
};

// Scrapes the live server's metrics socket ("stats" verb) every 3 ms:
// the read beside the writes of a two-process run.
class Scraper {
 public:
  explicit Scraper(std::string path) : path_(std::move(path)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Scraper() { Stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& read_ms() const { return read_ms_; }
  uint64_t failures() const { return failures_; }
  /// CPU the scraper thread itself used (kept out of cpu_ns_per_report).
  double cpu_ns() const { return cpu_ns_; }

 private:
  void Loop() {
    const double cpu_start = ThreadCpuNs();
    while (!stop_.load()) {
      const uint64_t start = NowNs();
      const bool ok = ScrapeOnce();
      const uint64_t end = NowNs();
      if (stop_.load()) break;  // the server may be shutting down
      if (ok) {
        read_ms_.push_back(static_cast<double>(end - start) * 1e-6);
      } else {
        ++failures_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    cpu_ns_ = ThreadCpuNs() - cpu_start;
  }

  bool ScrapeOnce() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    std::string body;
    bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0 &&
              ::send(fd, "stats\n", 6, MSG_NOSIGNAL) == 6;
    char buf[8192];
    ssize_t got;
    while (ok && (got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      body.append(buf, static_cast<size_t>(got));
    }
    ::close(fd);
    // A registry snapshot is one JSON object; before the first ingest it
    // may not list any counter yet.
    return ok && body.starts_with("{");
  }

  std::string path_;
  std::atomic<bool> stop_{false};
  std::vector<double> read_ms_;
  uint64_t failures_ = 0;
  double cpu_ns_ = 0.0;
  std::thread thread_;  // last: starts after every member it reads
};

struct ServerSummary {
  bool ok = false;
  uint64_t digest = 0;
  uint64_t push_stalls = 0;
  uint64_t pop_waits = 0;
  uint64_t runs = 0;
  std::vector<uint64_t> consumer_runs;
};

ServerSummary ParseServerOutput(const std::string& output) {
  ServerSummary summary;
  std::istringstream lines(output);
  std::string line;
  bool have_digest = false;
  bool clean = false;
  while (std::getline(lines, line)) {
    unsigned long long a = 0, b = 0, c = 0, d = 0, e = 0;
    size_t index = 0;
    if (std::sscanf(line.c_str(), "aggregate digest: %llx", &a) == 1) {
      summary.digest = a;
      have_digest = true;
    } else if (std::sscanf(line.c_str(),
                           "transport: %llu frames carried %llu runs (%llu "
                           "reports), %llu push stalls, %llu pop waits",
                           &a, &b, &c, &d, &e) == 5) {
      summary.runs = b;
      summary.push_stalls = d;
      summary.pop_waits = e;
    } else if (std::sscanf(line.c_str(), "  consumer %zu: %llu runs", &index,
                           &a) == 2) {
      summary.consumer_runs.push_back(a);
    } else if (line.starts_with("collector_server: clean drain")) {
      clean = true;
    }
  }
  summary.ok = have_digest && clean;
  return summary;
}

struct RoundResult {
  bool ok = false;
  double setup_s = 0.0;
  double run_s = 0.0;      // Fleet::Run start to the server's clean exit
  double drain_ms = 0.0;   // Fleet::Run return to the server's exit
  double cpu_ns = 0.0;     // this process + the server
  double peak_rss_mb = 0.0;
  double reports = 0.0;
  double slot_mse = 0.0;
  uint64_t stream_digest = 0;
  capp::TransportStats fleet_transport;
  ServerSummary server;
  std::vector<double> read_ms;
};

RoundResult RunRound(const Args& args, const capp::EngineConfig& base,
                     Report& report) {
  static int round = 0;
  RoundResult result;
  report.Attempt(kUsers);
  ScratchDir wal_dir("capp-wal");
  const std::string metrics_path = ScratchRoot() + "/m" +
                                   std::to_string(::getpid()) + "-" +
                                   std::to_string(round++) + ".sock";
  const uint64_t launch = NowNs();
  ServerProcess server;
  if (!server.Launch(args.server_path,
                     {"--tcp=127.0.0.1:0", "--wal-dir=" + wal_dir.path(),
                      "--consumers=2", "--affinity",
                      "--metrics-socket=" + metrics_path})) {
    report.Fail("collector_server did not start", kUsers);
    return result;
  }
  const std::optional<int> port =
      server.WaitForListen(launch + kListenDeadlineNs);
  if (!port.has_value()) {
    report.Fail("collector_server never printed its listen line", kUsers);
    return result;
  }
  capp::EngineConfig config = base;
  config.transport.kind = capp::TransportKind::kSocket;
  config.transport.tcp_host = "127.0.0.1";
  config.transport.tcp_port = *port;
  config.transport.connect_streams = kConnections;
  auto fleet = capp::Fleet::Create(config);
  result.setup_s = SecondsSince(launch);
  if (!fleet.ok()) {
    report.Fail("Fleet::Create: " + fleet.status().ToString(), kUsers);
    return result;
  }

  const double cpu_start = SelfCpuNs();
  const uint64_t run_start = NowNs();
  std::optional<Scraper> scraper(std::in_place, metrics_path);
  auto stats = fleet->Run();
  const uint64_t run_end = NowNs();
  scraper->Stop();
  result.read_ms = scraper->read_ms();
  report.Attempt(result.read_ms.size() + scraper->failures());
  if (scraper->failures() > 0) {
    report.Fail("metrics scrape failed", scraper->failures());
  }
  if (!server.ReadToEof(run_end + kExitDeadlineNs)) {
    server.Kill();
    report.Fail("collector_server did not exit in time (killed)", kUsers);
    return result;
  }
  int status = 0;
  rusage usage{};
  if (!server.Reap(&status, &usage)) {
    report.Fail("wait4 on collector_server failed", kUsers);
    return result;
  }
  const uint64_t exit_ns = NowNs();
  result.cpu_ns =
      SelfCpuNs() - cpu_start - scraper->cpu_ns() + RusageCpuNs(usage);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.run_s = static_cast<double>(exit_ns - run_start) * 1e-9;
  result.drain_ms = static_cast<double>(exit_ns - run_end) * 1e-6;
  if (!stats.ok()) {
    report.Fail("Fleet::Run: " + stats.status().ToString(), kUsers);
    return result;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    report.Fail("collector_server exited with status " +
                    std::to_string(status),
                kUsers);
    return result;
  }
  result.server = ParseServerOutput(server.output());
  if (!result.server.ok) {
    report.Fail("collector_server printed no clean drain or digest", kUsers);
    return result;
  }
  if (result.server.runs != kUsers) {
    report.Fail("collector_server ingested " +
                    std::to_string(result.server.runs) + " runs",
                kUsers);
    return result;
  }
  result.ok = true;
  result.reports = static_cast<double>(stats->reports);
  result.slot_mse = stats->mean_slot_mse;
  result.stream_digest = stats->stream_digest;
  result.fleet_transport = stats->transport;
  return result;
}

// The digests an in-process kDirect fleet of the same config publishes.
struct Oracle {
  bool ok = false;
  uint64_t stream_digest = 0;
  uint64_t collector_digest = 0;
};

Oracle DirectOracle(const capp::EngineConfig& base) {
  capp::EngineConfig config = base;
  config.num_threads = HardwareThreads();
  Oracle oracle;
  auto fleet = capp::Fleet::Create(config);
  if (!fleet.ok()) return oracle;
  auto stats = fleet->Run();
  if (!stats.ok()) return oracle;
  oracle.ok = true;
  oracle.stream_digest = stats->stream_digest;
  oracle.collector_digest = capp::CollectorStateDigest(fleet->collector());
  return oracle;
}

// The composed single-thread pipeline of one fleet worker, the socket,
// and one server consumer with its WAL tee, a span around every call.
// Calls are timed per 64-run chunk, the unit the socket carries: clock
// reads cost tens of ns on a VM, which per-run spans would add to every
// row.
struct ReplayResult {
  bool ok = false;
  uint64_t stream_digest = 0;
  uint64_t collector_digest = 0;
  double wall_ns = 0.0;
  double wal_bytes = 0.0;
  std::vector<double> fsync_ms;
};

ReplayResult Replay(const capp::EngineConfig& config, int smoothing,
                    Tracer& tracer) {
  const uint16_t chunk_span = tracer.Name("driver.chunk");
  const uint16_t encode_span = tracer.Name("transport.encode");
  const uint16_t write_span = tracer.Name("transport.socket_write");
  const uint16_t crc_span = tracer.Name("probe.crc");
  const uint16_t peek_span = tracer.Name("transport.peek");
  const uint16_t decode_span = tracer.Name("transport.decode");
  const uint16_t dedup_span = tracer.Name("storage.dedup");
  const uint16_t wal_encode_span = tracer.Name("storage.encode");
  const uint16_t append_span = tracer.Name("storage.wal_append");
  const uint16_t fsync_span = tracer.Name("storage.fsync");
  const uint16_t ingest_span = tracer.Name("engine.ingest");
  tracer.Reserve(config.num_users / kRunsPerChunk * 20);

  ReplayResult result;
  ScratchDir wal_dir("capp-replay-wal");
  capp::WalOptions wal_options;
  wal_options.dir = wal_dir.path();
  // Syncs are issued below, every kFramesPerSync appends, so each one is
  // timed on its own; the writer's own policy never fires.
  wal_options.fsync_every_frames = size_t{1} << 60;
  auto wal = capp::WalWriter::Create(wal_options, 1);
  auto sink = SocketSink::Open(
      1, capp::StreamHandshakeFingerprint(config.epsilon, config.window, 1,
                                          config.multidim_strategy));
  capp::ShardedCollectorOptions collector_options;
  collector_options.num_shards = config.num_shards;
  collector_options.keep_streams = false;
  auto collector = capp::ShardedCollector::Create(collector_options);
  if (!wal.ok() || sink == nullptr || !collector.ok()) return result;
  FleetSideReplay fleet(config, smoothing, kRunsPerChunk, tracer);

  std::vector<uint8_t> chunk;
  std::vector<size_t> frame_starts;
  std::vector<capp::WireFrameHeader> headers;
  std::vector<double> values;
  std::vector<double> decoded;
  std::vector<uint64_t> users;
  std::vector<uint8_t> wal_frames;
  std::vector<size_t> wal_starts;
  size_t since_sync = 0;
  bool ok = true;

  const auto sync = [&](uint32_t run) {
    const uint64_t start = NowNs();
    {
      Tracer::Scope span(tracer, fsync_span, run);
      ok = ok && wal->Sync().ok();
    }
    result.fsync_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  };
  const auto flush_chunk = [&](uint32_t run) {
    Tracer::Scope span(tracer, chunk_span, run);
    {
      Tracer::Scope write(tracer, write_span, run);
      ok = ok && sink->client().WriteChunk(chunk).ok();
    }
    if (tracer.enabled()) {
      Tracer::Scope probe(tracer, crc_span, run);
      uint32_t crc = 0;
      for (size_t i = 0; i < frame_starts.size(); ++i) {
        const size_t end =
            i + 1 < frame_starts.size() ? frame_starts[i + 1] : chunk.size();
        crc ^= capp::Crc32(std::span(chunk).subspan(
            frame_starts[i], end - frame_starts[i] - 4));
      }
      ok = ok && crc != 0x5eed;  // keeps the probe's work observable
    }
    // The server's per-frame calls, each timed over the chunk's frames.
    const size_t frames = frame_starts.size();
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
    decoded.resize(frames * config.num_slots);
    users.resize(frames);
    {
      Tracer::Scope decode(tracer, decode_span, run);
      uint64_t base_slot = 0;
      for (size_t i = 0; i < frames && ok; ++i) {
        ok = capp::DecodeUserRunFrame(
                 std::span(chunk).subspan(frame_starts[i],
                                          headers[i].frame_bytes),
                 &users[i], &base_slot, values)
                 .ok() &&
             base_slot == 0 && values.size() == config.num_slots;
        if (ok) {
          std::copy(values.begin(), values.end(),
                    decoded.begin() +
                        static_cast<ptrdiff_t>(i * config.num_slots));
        }
      }
    }
    const auto run_values = [&](size_t i) {
      return std::span<const double>(decoded).subspan(i * config.num_slots,
                                                       config.num_slots);
    };
    {
      Tracer::Scope dedup(tracer, dedup_span, run);
      for (size_t i = 0; i < frames; ++i) {
        ok = ok && !collector->Contains(users[i]);
      }
    }
    wal_frames.clear();
    wal_starts.clear();
    {
      Tracer::Scope encode(tracer, wal_encode_span, run);
      for (size_t i = 0; i < frames; ++i) {
        wal_starts.push_back(wal_frames.size());
        capp::AppendMultiDimRunFrame(users[i], 0, 1, run_values(i),
                                     wal_frames);
      }
    }
    {
      Tracer::Scope append(tracer, append_span, run);
      for (size_t i = 0; i < frames; ++i) {
        const size_t end =
            i + 1 < frames ? wal_starts[i + 1] : wal_frames.size();
        ok = ok && wal->Append(std::span(wal_frames)
                                   .subspan(wal_starts[i],
                                            end - wal_starts[i]))
                       .ok();
        if (++since_sync == kFramesPerSync) {
          since_sync = 0;
          sync(run);
        }
      }
    }
    {
      Tracer::Scope ingest(tracer, ingest_span, run);
      for (size_t i = 0; i < frames; ++i) {
        collector->IngestUserRun(users[i], 0, run_values(i));
      }
    }
    chunk.clear();
    frame_starts.clear();
  };

  const uint64_t start = NowNs();
  for (uint64_t first = 0; first < config.num_users; first += kRunsPerChunk) {
    const uint64_t end =
        std::min<uint64_t>(config.num_users, first + kRunsPerChunk);
    ok = fleet.Block(first, end, encode_span,
                     [&](uint64_t uid, std::span<const double> run) {
                       frame_starts.push_back(chunk.size());
                       capp::AppendUserRunFrame(uid, 0, run, chunk);
                     }) &&
         ok;
    flush_chunk(static_cast<uint32_t>(first));
  }
  const auto last = static_cast<uint32_t>(config.num_users);
  if (since_sync > 0) sync(last);
  {
    Tracer::Scope seal(tracer, fsync_span, last);
    ok = ok && wal->Seal().ok();
  }
  result.wall_ns = static_cast<double>(NowNs() - start);
  result.wal_bytes = static_cast<double>(wal->stats().bytes_appended);
  ok = ok && sink->Close().ok();
  result.ok = ok;
  result.stream_digest = fleet.stream_digest();
  result.collector_digest = capp::CollectorStateDigest(*collector);
  return result;
}

// Percentiles are taken per round and reported as their median over
// rounds. Every slot of a whole-stream run is due when the run starts and
// published when the server has sealed its WAL and exited, so a round's
// lag p50 and p95 coincide.
void ReportEndToEnd(const std::vector<RoundResult>& rounds, Report& report) {
  std::vector<double> rates, cpu, setup, rss, mse, lag, read50, read95;
  for (const RoundResult& round : rounds) {
    if (!round.ok) continue;
    rates.push_back(round.reports / round.run_s);
    cpu.push_back(round.cpu_ns / round.reports);
    setup.push_back(round.setup_s);
    rss.push_back(round.peak_rss_mb);
    mse.push_back(round.slot_mse);
    lag.push_back(round.run_s * 1e3);
    read50.push_back(Percentile(round.read_ms, 50));
    read95.push_back(Percentile(round.read_ms, 95));
  }
  const double rate = Median(rates);
  report.Set("reports_per_s", rate, "1/s");
  report.Set("sustained_cells_per_s", rate, "1/s");
  report.Set("cpu_ns_per_report", Median(cpu), "ns");
  report.Set("setup_s", Median(setup), "s");
  report.Set("peak_rss_mb", Median(rss), "MB");
  report.Set("slot_mse", Median(mse), "mse");
  report.Set("publish_lag_p50_ms", Median(lag), "ms");
  report.Set("publish_lag_p95_ms", Median(lag), "ms");
  report.Set("read_p50_ms", Median(read50), "ms");
  report.Set("read_p95_ms", Median(read95), "ms");
  report.Detail("rounds", static_cast<double>(rates.size()));
  report.Detail("publish_lag_samples_per_round", static_cast<double>(kSlots));
  std::string per_round = "[";
  for (size_t i = 0; i < rss.size(); ++i) {
    per_round += (i ? ", " : "") + std::to_string(rss[i]);
  }
  report.detail["server_peak_rss_mb_per_round"] = per_round + "]";
}

void CheckRound(const RoundResult& round, const Oracle& oracle,
                Report& report) {
  if (!round.ok) return;
  report.Check(round.server.digest == oracle.collector_digest,
               "collector_server aggregate digest differs from kDirect");
  report.Check(round.stream_digest == oracle.stream_digest,
               "socket fleet stream digest differs from kDirect");
}

}  // namespace

void RunTcpWal(const Args& args, Report& report) {
  const capp::EngineConfig config =
      FleetConfig(args.seed, kUsers, kSlots, kFleetThreads);
  report.Detail("users", kUsers);
  report.Detail("slots", kSlots);
  report.Detail("fleet_threads", kFleetThreads);
  report.Detail("connections", kConnections);

  const Oracle oracle = DirectOracle(config);
  report.Check(oracle.ok, "in-process kDirect oracle run failed");
  if (!oracle.ok) return;
  report.DetailHex("stream_digest", oracle.stream_digest);
  report.DetailHex("collector_digest", oracle.collector_digest);

  // Warm-up round (discarded but checked): cold runs measure page cache
  // and socket buffers filling, not the steady pipeline.
  CheckRound(RunRound(args, config, report), oracle, report);

  if (args.trace) {
    const RoundResult live = RunRound(args, config, report);
    CheckRound(live, oracle, report);
    if (live.ok) {
      const ServerSummary& server = live.server;
      ReportTransport(report, live.reports, server.push_stalls,
                      server.pop_waits, server.consumer_runs,
                      live.fleet_transport, live.drain_ms);
      // The program has no single-thread run (it is two processes and a
      // WAL), so the closure below is against the untraced replay; its
      // CPU per report, both processes, is given beside it.
      report.Detail("ledger.program_cpu_ns_per_report",
                    live.cpu_ns / live.reports);
    }
    auto probe = capp::Fleet::Create(config);
    CAPP_CHECK(probe.ok());
    const int smoothing = probe->smoothing_window();
    std::vector<Ledger> ledgers;
    std::vector<double> reference_ns;
    std::vector<ReplayResult> replays;
    for (int i = 0; i < kReplayRounds; ++i) {
      Tracer untraced(false);
      const ReplayResult reference = Replay(config, smoothing, untraced);
      Tracer tracer(true);
      replays.push_back(Replay(config, smoothing, tracer));
      const ReplayResult& replay = replays.back();
      report.Check(reference.ok && replay.ok, "replay pipeline failed");
      report.Check(replay.stream_digest == oracle.stream_digest &&
                       replay.collector_digest == oracle.collector_digest &&
                       reference.collector_digest == oracle.collector_digest,
                   "traced replay digests differ from the untraced run");
      reference_ns.push_back(reference.wall_ns);
      if (i == 0) WriteChromeTrace(tracer, TracePath(args), 20000);
      ledgers.push_back(Summarize(tracer, replay.wall_ns));
    }
    const double reports = static_cast<double>(kUsers * kSlots);
    const size_t chosen = ReportLedger(report, ledgers, reference_ns,
                                       "untraced replay", reference_ns,
                                       reports);
    const ReplayResult& replay = replays[chosen];
    report.Set("transport.crc_ns",
               static_cast<double>(ledgers[chosen].total_ns.at("probe.crc")) /
                   reports,
               "ns");
    report.Set("storage.fsync_ms_p50", Percentile(replay.fsync_ms, 50),
               "ms");
    report.Set("storage.fsync_ms_p95", Percentile(replay.fsync_ms, 95),
               "ms");
    report.Detail("storage.fsync_samples",
                  static_cast<double>(replay.fsync_ms.size()));
    report.Set("storage.wal_bytes_per_report", replay.wal_bytes / reports,
               "B");
    return;
  }

  std::vector<RoundResult> rounds;
  const uint64_t start = NowNs();
  while (rounds.empty() || SecondsSince(start) < args.seconds) {
    rounds.push_back(RunRound(args, config, report));
    CheckRound(rounds.back(), oracle, report);
  }
  ReportEndToEnd(rounds, report);
}

}  // namespace perfbench
