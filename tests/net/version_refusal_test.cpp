// One wire generation, refused loudly: a peer whose frames carry any other
// protocol version is a ProtocolMismatch for every client (SearchClient,
// fetch_stats, RemoteWorker's handshake) and a dropped connection — with a
// Warn log — for the daemons, which keep serving everyone else.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "net/remote_worker.h"
#include "net/search_client.h"
#include "net/stats.h"
#include "net/worker_server.h"
#include "util/thread_pool.h"

namespace ecad::net {
namespace {

constexpr std::uint16_t kForeignVersion = kProtocolVersion - 1;

/// encode_frame with the header's version patched to `version`.
std::vector<std::uint8_t> frame_at_version(MsgType type, const std::vector<std::uint8_t>& payload,
                                           std::uint16_t version) {
  std::vector<std::uint8_t> frame = encode_frame(type, payload);
  frame[4] = static_cast<std::uint8_t>(version & 0xff);
  frame[5] = static_cast<std::uint8_t>(version >> 8);
  return frame;
}

class ConstantWorker final : public core::Worker {
 public:
  std::string name() const override { return "constant"; }
  evo::EvalResult evaluate(const evo::Genome& genome) const override {
    evo::EvalResult result;
    result.accuracy = 0.5 + 0.001 * static_cast<double>(genome.nna.hidden.size());
    return result;
  }
};

/// A peer of another generation: answers Hello with a HelloAck and Ping
/// with a Pong, both framed at kForeignVersion; anything else closes the
/// connection.  Reads headers raw, so it never judges the client's version.
class ForeignPeer {
 public:
  ForeignPeer() : listener_("127.0.0.1", 0) { thread_ = std::thread([this] { serve(); }); }
  ~ForeignPeer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  ForeignPeer(const ForeignPeer&) = delete;
  ForeignPeer& operator=(const ForeignPeer&) = delete;
  std::uint16_t port() const { return listener_.port(); }
  std::size_t hellos() const { return hellos_.load(); }

 private:
  void serve() {
    while (!stop_.load()) {
      std::optional<Socket> accepted;
      try {
        accepted = listener_.accept(50);
      } catch (const NetError&) {
        return;
      }
      if (accepted) answer(*accepted);
    }
  }

  void answer(Socket& socket) {
    try {
      for (;;) {
        std::uint8_t header[kFrameHeaderBytes];
        socket.recv_exact(header, sizeof(header), 2000);
        const std::uint16_t type = static_cast<std::uint16_t>(header[6] | (header[7] << 8));
        const std::uint32_t size = static_cast<std::uint32_t>(header[8]) |
                                   (static_cast<std::uint32_t>(header[9]) << 8) |
                                   (static_cast<std::uint32_t>(header[10]) << 16) |
                                   (static_cast<std::uint32_t>(header[11]) << 24);
        std::vector<std::uint8_t> payload(size);
        if (size > 0) socket.recv_exact(payload.data(), size, 2000);
        std::vector<std::uint8_t> reply;
        if (type == static_cast<std::uint16_t>(MsgType::Hello)) {
          hellos_.fetch_add(1);
          WireWriter ack;
          write_hello(ack, "foreign");
          reply = frame_at_version(MsgType::HelloAck, ack.bytes(), kForeignVersion);
        } else if (type == static_cast<std::uint16_t>(MsgType::Ping)) {
          reply = frame_at_version(MsgType::Pong, {}, kForeignVersion);
        } else {
          return;
        }
        socket.send_all(reply.data(), reply.size());
      }
    } catch (const NetError&) {
      // client hung up
    }
  }

  Listener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> hellos_{0};
};

TEST(VersionRefusal, SearchClientConnectThrowsProtocolMismatch) {
  ForeignPeer peer;
  SearchClientOptions options;
  options.host = "127.0.0.1";
  options.port = peer.port();
  options.frame_timeout_ms = 2000;
  SearchClient client(options);
  EXPECT_THROW(client.connect(), ProtocolMismatch);
}

TEST(VersionRefusal, FetchStatsThrowsProtocolMismatch) {
  ForeignPeer peer;
  EXPECT_THROW(fetch_stats("127.0.0.1", peer.port(), "", 2000), ProtocolMismatch);
}

TEST(VersionRefusal, RemoteWorkerSidelinesTheEndpointAndFallsBack) {
  ForeignPeer peer;
  const ConstantWorker local;
  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", peer.port()}};
  options.connect_timeout_ms = 500;
  options.heartbeat_interval_ms = 0;
  options.endpoint_cooldown_ms = 60000;
  options.fallback = &local;
  const RemoteWorker remote(options);

  evo::Genome genome;
  genome.nna.hidden = {8, 4};
  EXPECT_EQ(remote.evaluate(genome).accuracy, local.evaluate(genome).accuracy);
  EXPECT_GE(peer.hellos(), 1u);
  EXPECT_EQ(remote.healthy_endpoints(), 0u);
  EXPECT_EQ(remote.remote_evaluations(), 0u);

  util::ThreadPool pool(2);
  const std::vector<evo::EvalOutcome> outcomes =
      remote.evaluate_batch(std::vector<evo::Genome>(3, genome), pool);
  for (const evo::EvalOutcome& outcome : outcomes) ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(remote.fallback_evaluations(), 4u);
  EXPECT_EQ(remote.remote_evaluations(), 0u);
}

TEST(VersionRefusal, RemoteWorkerWithoutFallbackThrowsNetError) {
  ForeignPeer peer;
  RemoteWorkerOptions options;
  options.endpoints = {{"127.0.0.1", peer.port()}};
  options.connect_timeout_ms = 500;
  options.heartbeat_interval_ms = 0;
  const RemoteWorker remote(options);
  EXPECT_THROW(remote.evaluate(evo::Genome{}), NetError);
  EXPECT_EQ(remote.ping_all(), 0u);  // its Pong is foreign too
}

TEST(VersionRefusal, WorkerServerDropsOnlyTheForeignConnection) {
  const ConstantWorker worker;
  WorkerServer server(worker);
  server.start();
  const Endpoint endpoint{"127.0.0.1", server.port()};

  // A current-generation client connected before the foreign one.
  Socket current = Socket::connect(endpoint, 2000);
  EXPECT_EQ(client_handshake(current, "current", 2000), "constant");

  ::testing::internal::CaptureStderr();
  Socket foreign = Socket::connect(endpoint, 2000);
  WireWriter hello;
  write_hello(hello, "foreign");
  const std::vector<std::uint8_t> frame =
      frame_at_version(MsgType::Hello, hello.bytes(), kForeignVersion);
  foreign.send_all(frame.data(), frame.size());
  // The daemon closes the foreign connection instead of answering it.
  std::uint8_t byte = 0;
  EXPECT_THROW(foreign.recv_exact(&byte, 1, 2000), NetError);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("WARN"), std::string::npos) << log;
  EXPECT_NE(log.find("protocol version " + std::to_string(kForeignVersion)), std::string::npos)
      << log;

  // The existing connection and new clients are still served.
  send_frame(current, MsgType::Ping, {});
  EXPECT_EQ(recv_frame(current, 2000).type, MsgType::Pong);
  RemoteWorkerOptions options;
  options.endpoints = {endpoint};
  const RemoteWorker remote(options);
  evo::Genome genome;
  genome.nna.hidden = {16};
  EXPECT_EQ(remote.evaluate(genome).accuracy, worker.evaluate(genome).accuracy);
  EXPECT_EQ(server.requests_served(), 1u);
  server.stop();
}

}  // namespace
}  // namespace ecad::net
