// The accept side both loop-driven servers share (transport/listener.hpp),
// exercised through each server: stop() with an idle client connected
// must close that connection, wait out its coroutines promptly, and leave
// the server able to bind again.
#include "transport/listener.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "obs/metrics.hpp"
#include "transport/metrics_exporter.hpp"
#include "transport/node_server.hpp"
#include "transport/tcp.hpp"

namespace omig::transport {
namespace {

using namespace std::chrono_literals;

template <class Server>
std::unique_ptr<Server> make_server();

template <>
std::unique_ptr<NodeServer> make_server<NodeServer>() {
  return std::make_unique<NodeServer>(
      [](Frame) -> std::optional<Frame> { return std::nullopt; });
}

template <>
std::unique_ptr<MetricsExporter> make_server<MetricsExporter>() {
  static obs::MetricsRegistry registry;
  return std::make_unique<MetricsExporter>(registry);
}

template <class Server>
class TransportListener : public ::testing::Test {};

struct ServerNames {
  template <class Server>
  static std::string GetName(int) {
    return std::is_same_v<Server, NodeServer> ? "NodeServer"
                                              : "MetricsExporter";
  }
};

using Servers = ::testing::Types<NodeServer, MetricsExporter>;
TYPED_TEST_SUITE(TransportListener, Servers, ServerNames);

TYPED_TEST(TransportListener, StopWithIdleClientClosesItAndRebinds) {
  auto server = make_server<TypeParam>();
  const std::uint16_t port = server->start();
  ASSERT_NE(port, 0);
  const int client = tcp_connect("127.0.0.1", port);
  ASSERT_GE(client, 0);
  // Bound the client's read, so a connection stop() left open fails the
  // test instead of hanging it.
  timeval limit{2, 0};
  ASSERT_EQ(::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &limit,
                         sizeof limit),
            0);
  std::this_thread::sleep_for(100ms);  // the server accepts and parks

  const auto stop_began = std::chrono::steady_clock::now();
  server->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_began, 1s);
  EXPECT_FALSE(server->running());

  std::uint8_t byte = 0;
  EXPECT_EQ(tcp_recv_some(client, &byte, 1), 0);  // orderly EOF
  tcp_close(client);

  const std::uint16_t again = server->start();
  EXPECT_NE(again, 0);
  EXPECT_TRUE(server->running());
  server->stop();
}

}  // namespace
}  // namespace omig::transport
