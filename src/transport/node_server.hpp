// Frame server for one live node, driven by a net::EventLoop.
//
// Listens on a loopback port, reassembles request frames from each
// connection (transport/wire) and hands them to a handler; the handler's
// optional reply frame is written back on the same connection. Frames on
// one connection are served in order — the same sequencing a node's
// mailbox imposes — while separate connections proceed independently.
//
// Execution model: all socket I/O — accept, read, write — runs as
// coroutines on one event loop (owned, or shared with the rest of the
// process via the constructor), so ten thousand idle connections cost
// ten thousand fds and some heap, not ten thousand blocked threads. The
// accept side, the loop and the teardown are the shared Listener's;
// this class adds the per-connection reader and writer. Handlers are
// the exception: they may block (awaiting the node's mailbox), so frames
// are dispatched to a small pool of handler strands. Each connection is
// pinned to one strand, which preserves per-connection frame order; the
// pool size bounds handler concurrency, not connection count.
//
// A malformed frame closes the connection (a byte stream that lost framing
// cannot be resynchronised), and stop() closes everything, which is how a
// node crash becomes a connection reset on the wire.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "transport/listener.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

class NodeServer {
public:
  /// Serves one request; may block (e.g. awaiting the node's mailbox).
  /// nullopt = no reply (fire-and-forget request, or the node died while
  /// processing — the caller's loss signal is the connection reset).
  using Handler = std::function<std::optional<Frame>(Frame)>;

  /// `loop` = nullptr: the server owns a private loop (one per start()
  /// cycle — loops are single-use). Otherwise all I/O runs on the given
  /// loop, which must outlive the server and keep running across stop().
  /// `handler_threads` bounds concurrent handler execution.
  explicit NodeServer(Handler handler, net::EventLoop* loop = nullptr,
                      int handler_threads = 2);
  ~NodeServer();
  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Binds `host:port` (0 = ephemeral) and starts accepting. Returns the
  /// bound port, or 0 on failure. No-op (returns the bound port) if
  /// already running.
  std::uint16_t start(std::uint16_t port = 0,
                      const std::string& host = "127.0.0.1");

  /// Closes the listener and every connection, then quiesces the loop
  /// tasks and joins the handler strands. In-flight handlers run to
  /// completion first (their replies are simply not delivered).
  /// Idempotent; start() may be called again afterwards.
  void stop();

  [[nodiscard]] bool running() const { return listener_.running(); }
  /// Port of the current (or, after stop(), the last) listener.
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

private:
  /// One handler strand: a worker thread draining a frame queue.
  /// Connections hash onto strands, so one connection's frames are
  /// handled in order while different connections can overlap.
  struct Strand {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<std::uint64_t, Frame>> queue;  ///< (conn id, frame)
    bool stop = false;
  };

  static sim::Task reader_task(NodeServer* s,
                               std::shared_ptr<Listener::Conn> conn);
  static sim::Task writer_task(NodeServer* s,
                               std::shared_ptr<Listener::Conn> conn);

  void strand_worker(Strand& strand);
  /// Stops and joins every strand; queued frames are dropped.
  void join_strands();
  /// Loop thread: appends reply bytes to the connection's output queue
  /// (dropped silently if the connection closed meanwhile).
  void queue_reply_on_loop(std::uint64_t conn_id,
                           std::vector<std::uint8_t> bytes);

  Handler handler_;
  const int handler_threads_;

  mutable std::mutex mutex_;  ///< start/stop, and strands_ against them
  std::vector<std::unique_ptr<Strand>> strands_;
  std::vector<std::uint8_t> read_scratch_;  ///< loop-thread only
  Listener listener_;
};

}  // namespace omig::transport
