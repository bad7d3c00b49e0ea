// perfbench_driver: the repository benchmark's measuring program.
//
//   perfbench_driver --workload fleet_direct|tcp_wal|slot_stream_d4
//                    --seed N --seconds S --trace 0|1
//                    [--server PATH/TO/collector_server]
//
// Prints one detail line (machine, calibration, digests, sample counts,
// failures) and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are every end-to-end metric (--trace 0) or every
// per-layer metric of the traced replay (--trace 1). perfbench/run.py
// builds this program and calls it; see perfbench/README.md.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The end-to-end metrics every workload reports, with their units. The
// names are BENCHMARK.json's.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"reports_per_s", "1/s"},       {"cpu_ns_per_report", "ns"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
    {"slot_mse", "mse"},            {"publish_lag_p50_ms", "ms"},
    {"publish_lag_p95_ms", "ms"},   {"sustained_cells_per_s", "1/s"},
    {"read_p50_ms", "ms"},          {"read_p95_ms", "ms"},
};

// The per-layer metrics. A layer a workload does not run reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"engine.synth_ns", "ns"},
    {"algorithms.perturb_ns", "ns"},
    {"multidim.perturb_ns", "ns"},
    {"stream.sma_ns", "ns"},
    {"core.digest_ns", "ns"},
    {"engine.ingest_ns", "ns"},
    {"engine.ingest_owned_d4_ns", "ns"},
    {"analysis.histogram_ns", "ns"},
    {"engine.snapshot_us", "us"},
    {"engine.seqlock_retries", "count"},
    {"analysis.window_ms", "ms"},
    {"transport.encode_ns", "ns"},
    {"transport.crc_ns", "ns"},
    {"transport.peek_ns", "ns"},
    {"transport.decode_ns", "ns"},
    {"transport.wire_bytes_per_report", "B"},
    {"transport.socket_write_ns", "ns"},
    {"transport.push_stalls_per_mreport", "1/Mreport"},
    {"transport.pop_waits_per_mreport", "1/Mreport"},
    {"transport.consumer_skew", "ratio"},
    {"transport.drain_ms", "ms"},
    {"transport.retries", "count"},
    {"transport.failures", "count"},
    {"storage.dedup_ns", "ns"},
    {"storage.encode_ns", "ns"},
    {"storage.wal_append_ns", "ns"},
    {"storage.fsync_ms_p50", "ms"},
    {"storage.fsync_ms_p95", "ms"},
    {"storage.wal_bytes_per_report", "B"},
    {"driver.gen_late_p95_ms", "ms"},
    {"ledger.unaccounted_frac", "ratio"},
    {"driver.trace_overhead", "ratio"},
};

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.starts_with("model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Same-process calibration: Rng::FillUniform ns/value over 1M values,
// median of five fills, so figures from another host can be scaled.
double CalibrationNsPerValue() {
  capp::Rng rng(12345);
  std::vector<double> values(1 << 20);
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < 6; ++rep) {
    const uint64_t start = NowNs();
    rng.FillUniform(values);
    const double ns = static_cast<double>(NowNs() - start);
    sink += values[rep];
    if (rep > 0) samples.push_back(ns / static_cast<double>(values.size()));
  }
  if (sink < 0) std::cerr << sink;  // keeps the fills observable
  return Median(samples);
}

std::string MachineJson() {
  std::ostringstream out;
  out << "{\"cpu_model\": " << JsonString(CpuModel())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
      << ", \"capp_native\": false"  // perfbench builds portable code
      << ", \"calibration_fill_uniform_ns_per_value\": "
      << JsonNumber(CalibrationNsPerValue()) << "}";
  return out.str();
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload fleet_direct|tcp_wal|slot_stream_d4 --seed N"
               " --seconds S --trace 0|1 [--server PATH]\n";
  return 2;
}

}  // namespace

std::string TracePath(const Args& args) {
  return ".bench_out/trace-" + args.workload + "-seed" +
         std::to_string(args.seed) + ".json";
}

void WriteChromeTrace(const Tracer& tracer, const std::string& path,
                      size_t max_spans) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  const auto& spans = tracer.spans();
  const size_t n = std::min(max_spans, spans.size());
  const uint64_t origin = n > 0 ? spans[0].start_ns : 0;
  for (size_t i = 0; i < n; ++i) {
    const Tracer::Span& span = spans[i];
    out << "{\"name\": " << JsonString(tracer.names()[span.name])
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << JsonNumber(static_cast<double>(span.start_ns - origin) * 1e-3)
        << ", \"dur\": "
        << JsonNumber(static_cast<double>(span.end_ns - span.start_ns) *
                      1e-3)
        << ", \"args\": {\"run\": " << span.run
        << ", \"parent\": " << span.parent << "}}"
        << (i + 1 < n ? ",\n" : "\n");
  }
  out << "]}\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--server") {
      args.server_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.server_path.empty()) {
    args.server_path =
        (std::filesystem::path(argv[0]).parent_path() / "collector_server")
            .string();
  }
  Report report;
  if (args.workload == "fleet_direct") {
    RunFleetDirect(args, report);
  } else if (args.workload == "tcp_wal") {
    RunTcpWal(args, report);
  } else if (args.workload == "slot_stream_d4") {
    RunSlotStream(args, report);
  } else {
    return Usage(argv[0]);
  }

  const auto& wanted = args.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, unit] : wanted) {
    if (report.metrics.count(name) != 0) continue;
    if (args.trace) {
      report.Set(name, 0.0, unit);  // the workload does not run this layer
    } else {
      report.Fail("end-to-end metric not measured: " + name);
    }
  }

  std::ostringstream detail;
  detail << "{\"detail\": {\"workload\": " << JsonString(args.workload)
         << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
         << ", \"machine\": " << MachineJson() << ", \"failed_ratio\": "
         << JsonNumber(report.attempted == 0
                           ? 1.0
                           : static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted));
  for (const auto& [key, value] : report.detail) {
    detail << ", " << JsonString(key) << ": " << value;
  }
  detail << ", \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    detail << (i ? ", " : "") << JsonString(report.failures[i]);
  }
  // Metrics measured on the way that the result line does not carry.
  detail << "], \"other_metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    bool listed = false;
    for (const auto& [wanted_name, unit] : wanted) {
      listed = listed || wanted_name == name;
    }
    if (listed) continue;
    detail << (first ? "" : ", ") << JsonString(name) << ": "
           << JsonNumber(metric.value);
    first = false;
  }
  detail << "}}}";
  std::cout << detail.str() << "\n";

  std::ostringstream result;
  result << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<uint64_t>(report.attempted, 1)
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < wanted.size(); ++i) {
    const auto& [name, unit] = wanted[i];
    result << (i ? ", " : "") << JsonString(name)
           << ": {\"value\": " << JsonNumber(report.metrics[name].value)
           << ", \"unit\": " << JsonString(unit) << "}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}
