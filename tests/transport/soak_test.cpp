// Transport soak: one event-loop NodeServer versus 1k+ concurrent TCP
// connections (the `transport` CI shard).
//
// One AsyncTcpTransport with 1024 peers, every peer pointing at the same
// server, gives 1024 real kernel connections multiplexed onto one client
// loop thread — the configuration the thread-per-peer backend cannot
// reach without 1024 blocked reader threads. Every connection carries
// several request/reply round trips with a unique echo payload, and the
// suite asserts the strict delivery contract: every reply arrives (zero
// drops), every reply matches its request (zero cross-wiring), and the
// server handled exactly one frame per request (zero duplicates).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "transport/async_tcp_transport.hpp"
#include "transport/node_server.hpp"
#include "transport/wire.hpp"

namespace omig::transport {
namespace {

constexpr std::size_t kConns = 1024;
constexpr std::size_t kRoundsPerConn = 4;

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(TransportSoak, ThousandConcurrentConnectionsZeroDropZeroDup) {
  std::atomic<std::uint64_t> handled{0};
  NodeServer server(
      [&handled](Frame frame) -> std::optional<Frame> {
        const auto* invoke = std::get_if<WireInvoke>(&frame.payload);
        if (invoke == nullptr) return std::nullopt;
        handled.fetch_add(1, std::memory_order_relaxed);
        WireInvokeReply reply;
        reply.result.ok = true;
        reply.result.value = invoke->method + ":" + invoke->argument;
        return Frame{frame.corr, std::move(reply)};
      },
      /*loop=*/nullptr);
  const std::uint16_t port = server.start();
  ASSERT_NE(port, 0);

  AsyncTcpTransport::Options opts;
  opts.peers.assign(kConns, Peer{"127.0.0.1", port});
  opts.max_connect_attempts = 6;
  opts.connect_backoff = std::chrono::milliseconds{2};
  AsyncTcpTransport tcp(std::move(opts), /*injector=*/nullptr);

  const std::size_t fds_before_connect = open_fd_count();

  // Round 0 establishes all kConns links; later rounds reuse them, so a
  // link that silently died between rounds shows up as a broken future.
  std::uint64_t seq = 1;
  for (std::size_t round = 0; round < kRoundsPerConn; ++round) {
    std::vector<std::future<runtime::InvokeResult>> replies;
    replies.reserve(kConns);
    for (std::size_t conn = 0; conn < kConns; ++conn) {
      WireInvoke msg;
      msg.seq = seq++;
      msg.object = "soak";
      msg.method = "echo";
      msg.argument =
          "c" + std::to_string(conn) + "-r" + std::to_string(round);
      std::future<runtime::InvokeResult> reply;
      ASSERT_EQ(tcp.send_invoke(kConns + 1, conn, msg, reply),
                SendStatus::Ok)
          << "conn " << conn << " round " << round;
      replies.push_back(std::move(reply));
    }
    for (std::size_t conn = 0; conn < kConns; ++conn) {
      runtime::InvokeResult result;
      ASSERT_NO_THROW(result = replies[conn].get())
          << "dropped reply: conn " << conn << " round " << round;
      EXPECT_TRUE(result.ok);
      EXPECT_EQ(result.value, "echo:c" + std::to_string(conn) + "-r" +
                                  std::to_string(round))
          << "cross-wired reply: conn " << conn << " round " << round;
    }
    // All links stay up between rounds: 1024 client + 1024 server fds.
    EXPECT_GE(open_fd_count(), fds_before_connect + 2 * kConns)
        << "connections dropped after round " << round;
  }

  // Exactly one handled frame per request — a duplicate delivery (or a
  // retry the transport is not supposed to do) would overshoot.
  EXPECT_EQ(handled.load(), kConns * kRoundsPerConn);
  EXPECT_EQ(tcp.reconnects(), 0u) << "links flapped during the soak";

  server.stop();
}

}  // namespace
}  // namespace omig::transport
