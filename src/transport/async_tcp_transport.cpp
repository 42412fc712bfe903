#include "transport/async_tcp_transport.hpp"

#include <algorithm>
#include <utility>

#include "obs/families.hpp"
#include "transport/tcp.hpp"
#include "util/assert.hpp"

namespace omig::transport {

namespace {

/// Answers a parked (deferred) envelope from a reply frame, on the loop
/// thread. False when the frame does not answer that request kind — a
/// protocol violation that costs the peer its connection.
bool fulfil(runtime::Message& parked, Frame::Payload&& payload) {
  return std::visit(
      [&](auto& envelope) {
        using Req = decltype(envelope.body);
        auto* reply = std::get_if<WireReply<Req>>(&payload);
        if (reply == nullptr) return false;
        envelope.answer(std::move(reply->result));
        return true;
      },
      parked);
}

}  // namespace

AsyncTcpTransport::AsyncTcpTransport(Options options,
                                     fault::FaultInjector* injector)
    : Transport{injector}, options_{std::move(options)} {
  if (options_.loop != nullptr) {
    loop_ = options_.loop;
  } else {
    owned_loop_ = std::make_unique<net::EventLoop>();
    owned_loop_->start();
    loop_ = owned_loop_.get();
  }
  conns_.reserve(options_.peers.size());
  for (const Peer& peer : options_.peers) {
    auto conn = std::make_unique<Conn>(*loop_, conns_.size(), peer);
    conn->rtt = &obs::MetricsRegistry::global().histogram(
        "omig_transport_rtt_us", "Request-to-reply round trip per peer",
        {{"peer", std::to_string(conns_.size())}});
    conns_.push_back(std::move(conn));
  }
}

AsyncTcpTransport::~AsyncTcpTransport() {
  stopping_.store(true, std::memory_order_release);
  if (loop_->running()) {
    // The teardown co-owns the promise: if the loop drops it unrun, the
    // promise breaks and the wait below ends at once.
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    loop_->spawn(teardown_task(this, done));
    (void)finished.wait_for(std::chrono::seconds{5});
  }
  if (owned_loop_) owned_loop_->stop();
}

SendStatus AsyncTcpTransport::send(std::size_t from, std::size_t to,
                                   runtime::Message message) {
  if (to >= conns_.size()) return SendStatus::Unreachable;
  if (stopping_.load(std::memory_order_acquire)) {
    obs::transport_metrics().send_rejections->inc();
    return SendStatus::Closed;
  }
  // Same verdict order as in-proc — decide, delay, drop, dup — and
  // decide() runs here on the caller's thread, so the injector's RNG
  // stream is consumed in caller order (trace parity depends on this).
  // The delay itself becomes a loop timer instead of a caller sleep.
  const fault::Decision verdict = decide(from, to);
  // "Sent", but lost in flight: the message dies here, its slot stays
  // empty.
  if (verdict.drop) return SendStatus::Ok;
  auto box = std::make_shared<Enqueue>();
  box->to = to;
  std::visit(
      [&](auto& envelope) {
        if (verdict.duplicate) {
          // Same-seq copy under a fresh correlation ID with nothing
          // parked for it, allocated before the original's ID.
          box->dup_bytes = encode_frame(Frame{
              next_corr_.fetch_add(1, std::memory_order_relaxed),
              envelope.body});
        }
        box->corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
        box->bytes = encode_frame(Frame{box->corr, std::move(envelope.body)});
      },
      message);
  if (box->bytes.size() - 4 > kMaxFramePayload) {
    obs::transport_metrics().send_rejections->inc();
    return SendStatus::Oversized;  // the message dies here, unanswered:
                                   // the typed status is the signal
  }
  // The envelope outlives this call, and its reply frame is read on the
  // loop thread: its answer travels through a promise from here on.
  std::visit([](auto& envelope) { envelope.defer(); }, message);
  box->envelope = std::move(message);
  post_enqueue(std::move(box), verdict.delay);
  return SendStatus::Ok;
}

SendStatus AsyncTcpTransport::send_shutdown(std::size_t to) {
  if (to >= conns_.size()) return SendStatus::Unreachable;
  if (stopping_.load(std::memory_order_acquire)) return SendStatus::Closed;
  OMIG_ASSERT(!loop_->on_loop_thread());  // we block on the loop's progress
  auto box = std::make_shared<Enqueue>();
  box->to = to;
  box->corr = next_corr_.fetch_add(1, std::memory_order_relaxed);
  box->bytes = encode_frame(Frame{box->corr, WireShutdown{}});
  std::promise<SendStatus> done;
  std::future<SendStatus> written = done.get_future();
  box->on_written = std::move(done);
  post_enqueue(std::move(box), 0.0);
  if (written.wait_for(std::chrono::seconds{2}) !=
      std::future_status::ready) {
    return SendStatus::Unreachable;
  }
  try {
    return written.get();
  } catch (const std::future_error&) {
    return SendStatus::Unreachable;  // dropped before it hit the wire
  }
}

void AsyncTcpTransport::on_node_crash(std::size_t node) {
  if (node >= conns_.size()) return;
  loop_->post([this, node] { reset_conn_on_loop(node, std::nullopt); });
}

void AsyncTcpTransport::set_peer(std::size_t node, Peer peer) {
  if (node >= conns_.size()) return;
  loop_->post([this, node, peer = std::move(peer)] {
    reset_conn_on_loop(node, peer);
  });
}

void AsyncTcpTransport::post_enqueue(std::shared_ptr<Enqueue> box,
                                     double delay_ms) {
  loop_->post([this, box = std::move(box), delay_ms] {
    if (delay_ms > 0) {
      const auto delay = std::chrono::ceil<std::chrono::milliseconds>(
          std::chrono::duration<double, std::milli>{delay_ms});
      // run_after refuses during shutdown (returns 0); the box then dies
      // with this lambda and the reply promise breaks — lost in flight.
      (void)loop_->run_after(delay, [this, box] { enqueue_on_loop(*box); });
    } else {
      enqueue_on_loop(*box);
    }
  });
}

void AsyncTcpTransport::enqueue_on_loop(Enqueue& e) {
  if (stopping_.load(std::memory_order_acquire)) return;  // promise breaks
  Conn& conn = *conns_[e.to];
  if (e.envelope.has_value()) {
    conn.pending.emplace(e.corr,
                         Parked{std::move(*e.envelope),
                                std::chrono::steady_clock::now()});
  }
  if (e.dup_bytes.has_value()) {
    conn.outq.push_back(Out{std::move(*e.dup_bytes), std::nullopt});
  }
  conn.outq.push_back(Out{std::move(e.bytes), std::move(e.on_written)});
  ensure_conn_active(conn);
}

void AsyncTcpTransport::ensure_conn_active(Conn& conn) {
  if (conn.fd >= 0) {
    conn.out_ready.set();
    return;
  }
  if (conn.connecting) return;  // the dialler picks the queue up on success
  conn.connecting = true;
  loop_->spawn(connect_task(this, &conn), &tasks_);
}

void AsyncTcpTransport::fail_conn(Conn& conn) {
  if (conn.fd >= 0) {
    loop_->cancel_fd(conn.fd);  // reader/writer wake with false and exit
    tcp_close(conn.fd);
    conn.fd = -1;
  }
  ++conn.generation;  // anything still parked resumes, sees this, exits
  conn.out_ready.cancel();
  for (Out& out : conn.outq) {
    if (out.on_written) out.on_written->set_value(SendStatus::Closed);
  }
  conn.outq.clear();
  conn.out_off = 0;
  conn.pending.clear();  // destroys the promises: every reply breaks
}

void AsyncTcpTransport::reset_conn_on_loop(std::size_t node,
                                           std::optional<Peer> new_peer) {
  Conn& conn = *conns_[node];
  fail_conn(conn);
  if (new_peer.has_value()) conn.peer = std::move(*new_peer);
}

sim::Task AsyncTcpTransport::connect_task(AsyncTcpTransport* t, Conn* conn) {
  net::EventLoop& loop = *t->loop_;
  for (int attempt = 0; attempt < t->options_.max_connect_attempts;
       ++attempt) {
    if (attempt > 0) {
      const int shift = std::min(attempt - 1, 6);
      co_await loop.sleep_for(t->options_.connect_backoff * (1 << shift));
    }
    if (t->stopping_.load(std::memory_order_acquire)) break;
    const Peer peer = conn->peer;  // re-read: set_peer may land mid-dial
    const int fd = tcp_connect_begin(peer.host, peer.port);
    if (fd < 0) continue;
    const bool ok = co_await loop.writable(fd);
    if (!ok || t->stopping_.load(std::memory_order_acquire)) {
      tcp_close(fd);
      break;
    }
    if (!tcp_connect_done(fd)) {
      tcp_close(fd);
      continue;
    }
    if (conn->peer.host != peer.host || conn->peer.port != peer.port) {
      tcp_close(fd);  // peer was re-pointed while we dialled the old one
      continue;
    }
    conn->fd = fd;
    const std::uint64_t generation = ++conn->generation;
    if (conn->ever_connected) {
      t->reconnects_.fetch_add(1, std::memory_order_relaxed);
      obs::transport_metrics().reconnects->inc();
    }
    conn->ever_connected = true;
    conn->connecting = false;
    loop.spawn(reader_task(t, conn, fd, generation), &t->tasks_);
    loop.spawn(writer_task(t, conn, fd, generation), &t->tasks_);
    co_return;
  }
  // Budget exhausted (or shutdown): everyone awaiting a reply on this
  // link is counted as rejected, then gets the broken-promise loss signal.
  conn->connecting = false;
  for (std::size_t i = 0; i < conn->pending.size(); ++i) {
    obs::transport_metrics().send_rejections->inc();
  }
  t->fail_conn(*conn);
}

sim::Task AsyncTcpTransport::writer_task(AsyncTcpTransport* t, Conn* conn,
                                         int fd, std::uint64_t generation) {
  net::EventLoop& loop = *t->loop_;
  for (;;) {
    while (conn->generation == generation && conn->outq.empty()) {
      if (!co_await conn->out_ready.wait()) co_return;  // link reset
    }
    if (conn->generation != generation) co_return;
    Out& front = conn->outq.front();
    const long n = tcp_write_some(fd, front.bytes.data() + conn->out_off,
                                  front.bytes.size() - conn->out_off);
    if (n == kWouldBlock) {
      const bool ok = co_await loop.writable(fd);
      if (!ok || conn->generation != generation) co_return;
      continue;
    }
    if (n <= 0) {
      if (conn->generation == generation) t->fail_conn(*conn);
      co_return;
    }
    conn->out_off += static_cast<std::size_t>(n);
    if (conn->out_off == front.bytes.size()) {
      obs::TransportMetrics& m = obs::transport_metrics();
      m.frames_out->inc();
      m.frame_bytes_out->inc(front.bytes.size());
      if (front.on_written) front.on_written->set_value(SendStatus::Ok);
      conn->outq.pop_front();
      conn->out_off = 0;
    }
  }
}

sim::Task AsyncTcpTransport::reader_task(AsyncTcpTransport* t, Conn* conn,
                                         int fd, std::uint64_t generation) {
  net::EventLoop& loop = *t->loop_;
  FrameBuffer frames;
  for (;;) {
    const bool ok = co_await loop.readable(fd);
    if (!ok || conn->generation != generation) co_return;
    // The scratch buffer is shared across every reader on this loop:
    // single-threaded, and never held across a suspension point.
    if (t->read_scratch_.empty()) t->read_scratch_.resize(16 * 1024);
    const long n =
        tcp_read_some(fd, t->read_scratch_.data(), t->read_scratch_.size());
    if (n == kWouldBlock) continue;
    if (n <= 0) {
      t->fail_conn(*conn);
      co_return;
    }
    obs::transport_metrics().frame_bytes_in->inc(
        static_cast<std::uint64_t>(n));
    frames.feed({t->read_scratch_.data(), static_cast<std::size_t>(n)});
    while (auto frame = frames.next()) {
      obs::transport_metrics().frames_in->inc();
      const auto it = conn->pending.find(frame->corr);
      if (it == conn->pending.end()) continue;  // a duplicate's answer
      conn->rtt->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - it->second.sent_at)
              .count()));
      const bool matched =
          fulfil(it->second.envelope, std::move(frame->payload));
      conn->pending.erase(it);
      if (!matched) {
        t->fail_conn(*conn);  // type-confused peer: drop the connection
        co_return;
      }
    }
    if (frames.error()) {
      t->fail_conn(*conn);  // malformed stream
      co_return;
    }
  }
}

sim::Task AsyncTcpTransport::teardown_task(
    AsyncTcpTransport* t, std::shared_ptr<std::promise<void>> done) {
  net::EventLoop& loop = *t->loop_;
  // Short grace so frames already queued (a shutdown burst, tail
  // replies) reach the wire before the links are torn down.
  for (int i = 0; i < 100; ++i) {
    bool busy = false;
    for (const auto& conn : t->conns_) {
      if (!conn->outq.empty() && (conn->fd >= 0 || conn->connecting)) {
        busy = true;
        break;
      }
    }
    if (!busy) break;
    co_await loop.sleep_for(std::chrono::milliseconds{2});
  }
  for (const auto& conn : t->conns_) t->fail_conn(*conn);
  // Wait for every reader/writer/connect coroutine to observe the reset
  // and finish — after this nothing on the loop references the conns,
  // so the destructor can free them even when the loop is shared.
  co_await t->tasks_;
  done->set_value();
}

}  // namespace omig::transport
