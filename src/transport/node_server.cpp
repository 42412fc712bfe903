#include "transport/node_server.hpp"

#include <algorithm>
#include <utility>

#include "obs/families.hpp"
#include "transport/tcp.hpp"
#include "util/assert.hpp"

namespace omig::transport {

NodeServer::NodeServer(Handler handler, net::EventLoop* loop,
                       int handler_threads)
    : handler_{std::move(handler)},
      handler_threads_{std::max(1, handler_threads)},
      listener_{loop, [this](const std::shared_ptr<Listener::Conn>& conn) {
                  listener_.spawn(reader_task(this, conn));
                  listener_.spawn(writer_task(this, conn));
                }} {
  OMIG_REQUIRE(handler_ != nullptr, "server needs a handler");
}

NodeServer::~NodeServer() { stop(); }

std::uint16_t NodeServer::start(std::uint16_t port, const std::string& host) {
  std::lock_guard lock{mutex_};
  if (listener_.running()) return listener_.port();  // idempotent
  // Strands before the listener: the first reader may dispatch at once.
  for (int i = 0; i < handler_threads_; ++i) {
    auto strand = std::make_unique<Strand>();
    Strand* raw = strand.get();
    strand->thread = std::thread{[this, raw] { strand_worker(*raw); }};
    strands_.push_back(std::move(strand));
  }
  const std::uint16_t bound = listener_.start(port, host);
  if (bound == 0) {
    join_strands();
    strands_.clear();
  }
  return bound;
}

void NodeServer::stop() {
  std::lock_guard lock{mutex_};
  if (!listener_.running()) return;  // already stopped: idempotent
  // Strands first: in-flight handlers finish, queued frames are dropped,
  // and after the joins no strand can post replies any more — so the
  // listener's teardown (FIFO after any reply post) sees the last of them.
  join_strands();
  // strands_ stays populated until the teardown quiesced the reader
  // coroutines — they push into the strand queues without mutex_.
  listener_.stop();
  strands_.clear();
}

void NodeServer::join_strands() {
  for (auto& strand : strands_) {
    {
      std::lock_guard strand_lock{strand->mutex};
      strand->stop = true;
    }
    strand->cv.notify_all();
  }
  for (auto& strand : strands_) {
    if (strand->thread.joinable()) strand->thread.join();
  }
}

sim::Task NodeServer::reader_task(NodeServer* s,
                                  std::shared_ptr<Listener::Conn> conn) {
  Listener& listener = s->listener_;
  net::EventLoop& loop = listener.loop();
  FrameBuffer frames;
  for (;;) {
    const bool ok = co_await loop.readable(conn->fd);
    if (!ok || conn->closed) co_return;
    if (s->read_scratch_.empty()) s->read_scratch_.resize(16 * 1024);
    const long n = tcp_read_some(conn->fd, s->read_scratch_.data(),
                                 s->read_scratch_.size());
    if (n == kWouldBlock) continue;
    if (n <= 0) {  // EOF, reset, or malformed close below
      listener.close(*conn);
      co_return;
    }
    obs::node_metrics().server_bytes_in->inc(static_cast<std::uint64_t>(n));
    frames.feed({s->read_scratch_.data(), static_cast<std::size_t>(n)});
    while (auto frame = frames.next()) {
      // Pin the connection to one strand: per-connection frame order is
      // the contract (it mirrors the node's mailbox sequencing).
      Strand& strand = *s->strands_[conn->id % s->strands_.size()];
      {
        std::lock_guard lock{strand.mutex};
        strand.queue.emplace_back(conn->id, std::move(*frame));
      }
      strand.cv.notify_one();
    }
    if (frames.error()) {  // malformed stream: drop the connection
      listener.close(*conn);
      co_return;
    }
  }
}

sim::Task NodeServer::writer_task(NodeServer* s,
                                  std::shared_ptr<Listener::Conn> conn) {
  Listener& listener = s->listener_;
  net::EventLoop& loop = listener.loop();
  for (;;) {
    while (!conn->closed && conn->outq.empty()) {
      if (!co_await conn->out_ready.wait()) co_return;
    }
    if (conn->closed) co_return;
    const std::vector<std::uint8_t>& front = conn->outq.front();
    const long n = tcp_write_some(conn->fd, front.data() + conn->out_off,
                                  front.size() - conn->out_off);
    if (n == kWouldBlock) {
      const bool ok = co_await loop.writable(conn->fd);
      if (!ok || conn->closed) co_return;
      continue;
    }
    if (n <= 0) {
      listener.close(*conn);
      co_return;
    }
    conn->out_off += static_cast<std::size_t>(n);
    if (conn->out_off == front.size()) {
      obs::node_metrics().server_bytes_out->inc(front.size());
      conn->outq.pop_front();
      conn->out_off = 0;
    }
  }
}

void NodeServer::strand_worker(Strand& strand) {
  for (;;) {
    std::pair<std::uint64_t, Frame> work{0, Frame{}};
    {
      std::unique_lock lock{strand.mutex};
      strand.cv.wait(lock,
                     [&strand] { return strand.stop || !strand.queue.empty(); });
      if (strand.stop) return;  // queued frames are dropped, like unread bytes
      work = std::move(strand.queue.front());
      strand.queue.pop_front();
    }
    std::optional<Frame> reply = handler_(std::move(work.second));
    if (!reply.has_value()) continue;
    std::vector<std::uint8_t> bytes = encode_frame(*reply);
    listener_.loop().post(
        [this, conn_id = work.first, bytes = std::move(bytes)]() mutable {
          queue_reply_on_loop(conn_id, std::move(bytes));
        });
  }
}

void NodeServer::queue_reply_on_loop(std::uint64_t conn_id,
                                     std::vector<std::uint8_t> bytes) {
  Listener::Conn* conn = listener_.find(conn_id);
  if (conn == nullptr) return;  // connection died while the handler ran
  conn->outq.push_back(std::move(bytes));
  conn->out_ready.set();
}

}  // namespace omig::transport
