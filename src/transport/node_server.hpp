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
// ten thousand fds and some heap, not ten thousand blocked threads.
// Handlers are the exception: they may block (awaiting the node's
// mailbox), so frames are dispatched to a small pool of handler strands.
// Each connection is pinned to one strand, which preserves per-connection
// frame order; the pool size bounds handler concurrency, not connection
// count.
//
// A malformed frame closes the connection (a byte stream that lost framing
// cannot be resynchronised), and stop() closes everything, which is how a
// node crash becomes a connection reset on the wire.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
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

  [[nodiscard]] bool running() const;
  /// Port of the current (or, after stop(), the last) listener.
  [[nodiscard]] std::uint16_t port() const;

private:
  /// Per-connection state. Loop-thread only. Held by shared_ptr so the
  /// reader/writer coroutines of a connection that just closed can still
  /// observe `closed` instead of a dangling pointer.
  struct Conn {
    Conn(net::EventLoop& loop, std::uint64_t id_)
        : id(id_), out_ready(loop) {}
    std::uint64_t id;
    int fd = -1;
    bool closed = false;
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    net::Event out_ready;
  };

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

  static sim::Task accept_task(NodeServer* s, int listener);
  static sim::Task reader_task(NodeServer* s, std::shared_ptr<Conn> conn);
  static sim::Task writer_task(NodeServer* s, std::shared_ptr<Conn> conn);
  static sim::Task teardown_task(NodeServer* s, int listener,
                                 std::promise<void>* done);

  void strand_worker(Strand& strand);
  /// Loop thread: appends reply bytes to the connection's output queue
  /// (dropped silently if the connection closed meanwhile).
  void queue_reply_on_loop(std::uint64_t conn_id,
                           std::vector<std::uint8_t> bytes);
  /// Loop thread: closes the fd, wakes and detaches both coroutines,
  /// forgets the connection.
  void close_conn(Conn& conn);

  Handler handler_;
  net::EventLoop* const external_loop_;
  const int handler_threads_;

  mutable std::mutex mutex_;  ///< control plane: start/stop/port
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;  ///< non-null while running
  int listener_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Strand>> strands_;

  // Loop-thread only:
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t live_tasks_ = 0;
  std::vector<std::uint8_t> read_scratch_;

  struct TaskGuard {
    explicit TaskGuard(NodeServer* s) : s_(s) { ++s_->live_tasks_; }
    ~TaskGuard() { --s_->live_tasks_; }
    TaskGuard(const TaskGuard&) = delete;
    TaskGuard& operator=(const TaskGuard&) = delete;

  private:
    NodeServer* s_;
  };
};

}  // namespace omig::transport
