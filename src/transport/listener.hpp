// Accept side of the loop-driven servers (NodeServer, MetricsExporter).
//
// A Listener binds a loopback port, accepts every pending connection in
// one burst per readiness wake-up, and hands each one to its server's
// `serve` callback, which spawns the coroutines that read and write that
// connection. All of it runs on one net::EventLoop: owned (one per
// start() cycle, since loops are single-use) or shared with the rest of
// the process.
//
// stop() closes the listening socket and every open connection, which
// wakes the server's parked coroutines with `false`, then waits until
// the last of them has ended (net::TaskGroup). After stop() returns
// nothing on the loop refers to the server any more, so it may be freed
// even when the loop is shared and keeps running.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"

namespace omig::transport {

class Listener {
public:
  /// One accepted connection. Loop-thread only. Held by shared_ptr so
  /// the coroutines of a connection that just closed can still observe
  /// `closed` instead of a dangling pointer.
  struct Conn {
    Conn(net::EventLoop& loop, std::uint64_t id_, int fd_)
        : id(id_), fd(fd_), out_ready(loop) {}
    const std::uint64_t id;
    int fd;
    bool closed = false;
    /// Replies for NodeServer's writer, which parks on `out_ready` while
    /// the queue is empty (close() cancels it); `out_off` bytes of the
    /// front buffer are written.
    std::deque<std::vector<std::uint8_t>> outq;
    std::size_t out_off = 0;
    net::Event out_ready;
  };

  /// Loop thread: spawn()s the coroutines that serve a new connection.
  using Serve = std::function<void(const std::shared_ptr<Conn>&)>;

  /// `loop` = nullptr: own a private loop per start() cycle. Otherwise
  /// all I/O runs on the given loop, which must outlive the listener and
  /// keep running across stop().
  Listener(net::EventLoop* loop, Serve serve);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds `host:port` (0 = ephemeral) and starts accepting. Returns the
  /// bound port, or 0 on failure. No-op (returns the bound port) if
  /// already running.
  std::uint16_t start(std::uint16_t port = 0,
                      const std::string& host = "127.0.0.1");

  /// Closes the listener and every connection, then waits until every
  /// coroutine spawned through spawn() has ended. Idempotent; start()
  /// may be called again afterwards.
  void stop();

  [[nodiscard]] bool running() const;
  /// Port of the current (or, after stop(), the last) listener.
  [[nodiscard]] std::uint16_t port() const;

  /// The loop the connections run on; valid from start() until stop().
  [[nodiscard]] net::EventLoop& loop() const { return *loop_; }

  // ---- loop-thread only ----------------------------------------------

  /// Runs `task` on the loop; stop() waits for it to end.
  void spawn(sim::Task task);
  /// Closes the fd, wakes the connection's coroutines (they observe
  /// `closed`) and forgets the connection. Idempotent.
  void close(Conn& conn);

private:
  static sim::Task accept_task(Listener* l, int listener);
  static sim::Task teardown_task(Listener* l, int listener,
                                 std::shared_ptr<std::promise<void>> done);

  net::EventLoop* const external_loop_;
  const Serve serve_;

  mutable std::mutex mutex_;  ///< control plane: start/stop/port
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;  ///< non-null while running
  int listener_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  // Loop-thread only:
  std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;
  net::TaskGroup tasks_;
};

}  // namespace omig::transport
