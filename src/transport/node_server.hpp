// Frame server for one live node, driven by a net::EventLoop.
//
// Listens on a loopback port, reassembles request frames from each
// connection (transport/wire) and hands them to a handler; the handler's
// optional reply frame is written back on the same connection. Frames on
// one connection are served in order, while separate connections
// proceed independently.
//
// Execution model: all socket I/O — accept, read, write — runs as
// coroutines on one event loop (owned, or shared with the rest of the
// process via the constructor), so ten thousand idle connections cost
// ten thousand fds and some heap, not ten thousand blocked threads. The
// accept side, the loop and the teardown are the shared Listener's;
// this class adds the per-connection reader and writer. The reader runs
// the handler inline on the loop thread and queues its reply, so a
// request crosses no thread between the socket and the node. In
// exchange, a handler must not wait on the loop it runs on. A handler
// that blocks on another thread stays correct, but the loop — and every
// connection on it — waits with it.
//
// A malformed frame closes the connection (a byte stream that lost framing
// cannot be resynchronised), and stop() closes everything, which is how a
// node crash becomes a connection reset on the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/event_loop.hpp"
#include "transport/listener.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

class NodeServer {
public:
  /// Serves one request on the loop thread. nullopt = no reply
  /// (fire-and-forget request, or the node is down — the caller's loss
  /// signal is the connection reset).
  using Handler = std::function<std::optional<Frame>(Frame)>;

  /// `loop` = nullptr: the server owns a private loop (one per start()
  /// cycle — loops are single-use). Otherwise all I/O runs on the given
  /// loop, which must outlive the server and keep running across stop().
  explicit NodeServer(Handler handler, net::EventLoop* loop = nullptr);
  ~NodeServer();
  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Binds `host:port` (0 = ephemeral) and starts accepting. Returns the
  /// bound port, or 0 on failure. No-op (returns the bound port) if
  /// already running.
  std::uint16_t start(std::uint16_t port = 0,
                      const std::string& host = "127.0.0.1");

  /// Closes the listener and every connection, then quiesces the loop
  /// tasks; after it returns no handler runs. Idempotent; start() may be
  /// called again afterwards.
  void stop();

  [[nodiscard]] bool running() const { return listener_.running(); }
  /// Port of the current (or, after stop(), the last) listener.
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

private:
  static sim::Task reader_task(NodeServer* s,
                               std::shared_ptr<Listener::Conn> conn);
  static sim::Task writer_task(NodeServer* s,
                               std::shared_ptr<Listener::Conn> conn);

  Handler handler_;
  std::vector<std::uint8_t> read_scratch_;  ///< loop-thread only
  Listener listener_;
};

}  // namespace omig::transport
