#include "transport/node_server.hpp"

#include <utility>

#include "obs/families.hpp"
#include "transport/tcp.hpp"
#include "util/assert.hpp"

namespace omig::transport {

NodeServer::NodeServer(Handler handler, net::EventLoop* loop)
    : handler_{std::move(handler)},
      listener_{loop, [this](const std::shared_ptr<Listener::Conn>& conn) {
                  listener_.spawn(reader_task(this, conn));
                  listener_.spawn(writer_task(this, conn));
                }} {
  OMIG_REQUIRE(handler_ != nullptr, "server needs a handler");
}

NodeServer::~NodeServer() { stop(); }

std::uint16_t NodeServer::start(std::uint16_t port, const std::string& host) {
  return listener_.start(port, host);
}

void NodeServer::stop() { listener_.stop(); }

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
      // Served inline, in the connection's frame order; the writer sends
      // the replies in the same order.
      std::optional<Frame> reply = s->handler_(std::move(*frame));
      if (!reply.has_value()) continue;
      conn->outq.push_back(encode_frame(*reply));
      conn->out_ready.set();
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

}  // namespace omig::transport
