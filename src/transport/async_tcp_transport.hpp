// Socket backend of the transport seam: wire frames over localhost TCP,
// with all I/O multiplexed onto one net::EventLoop.
//
// Execution model: the caller's thread runs only the synchronous part of
// a send — the fault injector's decide() (so the injector's RNG stream
// is consumed in caller order, exactly as in-proc, which is what keeps
// traces byte-identical across backends), frame encoding, and the
// Oversized check. The encoded bytes then hop onto the loop, where all
// per-connection state lives lock-free on the loop thread:
//
//   connect coroutine — nonblocking dial with bounded exponential
//       backoff; the backoff is a loop timer, not a sleeping thread;
//   writer coroutine  — drains the connection's output queue with
//       nonblocking writes, parking on a net::Event when idle and on
//       writability when the socket pushes back;
//   reader coroutine  — one per connection, feeds a FrameBuffer and
//       fulfils parked replies by correlation ID. A reply nobody waits for
//       (an injected duplicate's answer) is discarded; a malformed or
//       mismatched reply kills the connection — strict, like the codec.
//
// Failure semantics: once a send returns Ok, every asynchronous failure
// — connect budget exhausted, link reset, peer SIGKILLed, injected drop —
// surfaces as a broken reply future, the "lost in flight" signal the
// retry layer already handles. Injected delays arm a loop timer that
// defers the enqueue; decide → delay → drop → dup ordering is unchanged.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "transport/transport.hpp"

namespace omig::transport {

class AsyncTcpTransport final : public Transport {
public:
  struct Options {
    /// Peer endpoints, indexed by node id.
    std::vector<Peer> peers;
    /// Connect attempts per dial (including the first).
    int max_connect_attempts = 4;
    /// Base reconnect backoff; doubled per attempt, shift capped at 6.
    std::chrono::milliseconds connect_backoff{1};
    /// Run on this loop (shared with e.g. the NodeServers of the same
    /// process); nullptr = own a private loop + thread.
    net::EventLoop* loop = nullptr;
  };

  AsyncTcpTransport(Options options, fault::FaultInjector* injector);
  ~AsyncTcpTransport() override;

  using Transport::send;
  /// Encodes the request and parks its reply promise until the answer
  /// frame arrives.
  SendStatus send(std::size_t from, std::size_t to,
                  runtime::Message message) override;

  /// Queues the shutdown frame and waits (bounded) until it is actually
  /// on the wire — callers tearing a cluster down need the frame flushed
  /// before they start waiting for the peer process to exit.
  SendStatus send_shutdown(std::size_t to) override;

  /// Crash notification: reset the connection so parked replies break
  /// now instead of when the peer's socket times out.
  void on_node_crash(std::size_t node) override;
  /// Re-points a peer (e.g. a node process restarted on a new port) and
  /// resets its connection.
  void set_peer(std::size_t node, Peer peer);
  /// Connections re-established after a reset (0 on an undisturbed run).
  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] net::EventLoop& loop() { return *loop_; }

private:
  /// One queued output buffer; `on_written` (shutdown frames) is
  /// fulfilled when the last byte hits the socket, or set to Closed when
  /// the link dies first.
  struct Out {
    std::vector<std::uint8_t> bytes;
    std::optional<std::promise<SendStatus>> on_written;
  };

  /// A request awaiting its reply frame: the envelope (its body already
  /// encoded and moved out) keeps the reply promise; the send time feeds
  /// the peer's RTT histogram.
  struct Parked {
    runtime::Message envelope;
    std::chrono::steady_clock::time_point sent_at;
  };

  /// Per-peer state. Loop-thread only — no mutex anywhere. `generation`
  /// ties the reader/writer/connect coroutines to the link incarnation
  /// they serve; a stale coroutine woken after a reset sees the mismatch
  /// and exits without touching the fresh state.
  struct Conn {
    Conn(net::EventLoop& loop, std::size_t id_, Peer peer_)
        : id(id_), peer(std::move(peer_)), out_ready(loop) {}
    std::size_t id;
    Peer peer;
    int fd = -1;
    bool connecting = false;
    bool ever_connected = false;
    std::uint64_t generation = 0;
    std::deque<Out> outq;
    std::size_t out_off = 0;  ///< bytes of outq.front() already written
    net::Event out_ready;     ///< parks the writer between bursts
    std::unordered_map<std::uint64_t, Parked> pending;
    obs::Histogram* rtt = nullptr;  ///< omig_transport_rtt_us{peer="N"}
  };

  /// Everything one send ships to the loop. Dropped whole (promise
  /// breaks) if the loop stops before the enqueue runs.
  struct Enqueue {
    std::size_t to = 0;
    std::uint64_t corr = 0;
    std::vector<std::uint8_t> bytes;
    std::optional<std::vector<std::uint8_t>> dup_bytes;
    std::optional<runtime::Message> envelope;            // requests
    std::optional<std::promise<SendStatus>> on_written;  // shutdown
  };

  void post_enqueue(std::shared_ptr<Enqueue> box, double delay_ms);
  void enqueue_on_loop(Enqueue& e);
  void ensure_conn_active(Conn& conn);
  /// Kills the link: cancels waiters, closes the fd, breaks every
  /// pending reply and queued write. Loop thread only.
  void fail_conn(Conn& conn);
  void reset_conn_on_loop(std::size_t node, std::optional<Peer> new_peer);

  static sim::Task connect_task(AsyncTcpTransport* t, Conn* conn);
  static sim::Task writer_task(AsyncTcpTransport* t, Conn* conn, int fd,
                               std::uint64_t generation);
  static sim::Task reader_task(AsyncTcpTransport* t, Conn* conn, int fd,
                               std::uint64_t generation);
  static sim::Task teardown_task(AsyncTcpTransport* t,
                                 std::shared_ptr<std::promise<void>> done);

  Options options_;
  std::unique_ptr<net::EventLoop> owned_loop_;
  net::EventLoop* loop_ = nullptr;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> next_corr_{1};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<bool> stopping_{false};
  /// Every connect/reader/writer coroutine; loop-thread only. The
  /// teardown waits for it to drain before the conns are freed.
  net::TaskGroup tasks_;
  /// Shared recv scratch: loop-thread only and never held across a
  /// suspension point, so one buffer serves every reader coroutine.
  std::vector<std::uint8_t> read_scratch_;
};

}  // namespace omig::transport
