// The far end of a replay's socket writes: an in-process
// SocketCollectorServer on an ephemeral TCP port feeding a collector of
// its own, and one handshaked ResilientSocketClient stream into it. The
// replay times WriteChunk against it and does the collector side itself,
// so the sink's ingest runs on the server's threads, outside the ledger.
#ifndef PERFBENCH_DRIVER_SOCKET_SINK_H_
#define PERFBENCH_DRIVER_SOCKET_SINK_H_

#include <memory>

#include "engine/engine_config.h"
#include "engine/sharded_collector.h"
#include "transport/socket_transport.h"
#include "transport/tcp_transport.h"

namespace perfbench {

class SocketSink {
 public:
  static std::unique_ptr<SocketSink> Open(size_t dims,
                                          uint64_t fingerprint) {
    capp::ShardedCollectorOptions options;
    options.keep_streams = false;
    options.dims = dims;
    auto collector = capp::ShardedCollector::Create(options);
    if (!collector.ok()) return nullptr;
    std::unique_ptr<SocketSink> sink(new SocketSink(std::move(*collector)));
    capp::SocketCollectorServer::Options server_options;
    server_options.tcp_host = "127.0.0.1";
    server_options.handshake_fingerprint = fingerprint;
    server_options.expected_dims = static_cast<uint32_t>(dims);
    server_options.shard_affinity = true;
    auto server =
        capp::SocketCollectorServer::Create(&sink->collector_, server_options);
    if (!server.ok()) return nullptr;
    sink->server_ = std::move(*server);
    capp::ResilientSocketClient::Options client_options;
    client_options.endpoint.tcp_host = "127.0.0.1";
    client_options.endpoint.tcp_port = sink->server_->tcp_port();
    client_options.fingerprint = fingerprint;
    client_options.dims = static_cast<uint32_t>(dims);
    client_options.client_id = capp::GenerateTransportClientId();
    auto client = capp::ResilientSocketClient::Connect(client_options);
    if (!client.ok()) return nullptr;
    sink->client_ = std::move(*client);
    return sink;
  }

  ~SocketSink() {
    if (client_ != nullptr) client_->Close();
    if (server_ != nullptr) (void)server_->Finish();
  }
  SocketSink(const SocketSink&) = delete;
  SocketSink& operator=(const SocketSink&) = delete;

  capp::ResilientSocketClient& client() { return *client_; }

  /// FINs the stream and drains the server; fails on any loss.
  capp::Status Close() {
    CAPP_RETURN_IF_ERROR(client_->Finish());
    client_->Close();
    server_->WaitForCompletedSessions(1);
    return server_->Finish();
  }

 private:
  explicit SocketSink(capp::ShardedCollector collector)
      : collector_(std::move(collector)) {}

  capp::ShardedCollector collector_;
  std::unique_ptr<capp::SocketCollectorServer> server_;
  std::unique_ptr<capp::ResilientSocketClient> client_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SOCKET_SINK_H_
