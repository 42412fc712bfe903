#include "transport/listener.hpp"

#include <chrono>
#include <utility>

#include "transport/tcp.hpp"

namespace omig::transport {

Listener::Listener(net::EventLoop* loop, Serve serve)
    : external_loop_{loop}, serve_{std::move(serve)} {}

Listener::~Listener() { stop(); }

std::uint16_t Listener::start(std::uint16_t port, const std::string& host) {
  std::lock_guard lock{mutex_};
  if (listener_fd_ >= 0) return port_;  // already running: idempotent
  const int fd = tcp_listen(host, port);
  if (fd < 0) return 0;
  listener_fd_ = fd;
  port_ = tcp_local_port(fd);
  stopping_.store(false, std::memory_order_release);
  if (external_loop_ != nullptr) {
    loop_ = external_loop_;
  } else {
    // Loops are single-use, so every start() cycle owns a fresh one.
    owned_loop_ = std::make_unique<net::EventLoop>();
    owned_loop_->start();
    loop_ = owned_loop_.get();
  }
  loop_->post([this, fd] { spawn(accept_task(this, fd)); });
  return port_;
}

void Listener::stop() {
  std::lock_guard lock{mutex_};
  if (listener_fd_ < 0) return;  // already stopped: idempotent
  stopping_.store(true, std::memory_order_release);
  const int listener = listener_fd_;
  if (loop_->running()) {
    // The teardown co-owns the promise: if the loop drops it unrun, the
    // promise breaks and the wait below ends at once.
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    loop_->spawn(teardown_task(this, listener, done));
    (void)finished.wait_for(std::chrono::seconds{5});
  } else {
    tcp_close(listener);  // external loop died first; just free the fd
  }
  listener_fd_ = -1;
  if (owned_loop_) {
    owned_loop_->stop();
    owned_loop_.reset();
  }
  loop_ = nullptr;
}

bool Listener::running() const {
  std::lock_guard lock{mutex_};
  return listener_fd_ >= 0;  // stop() clears it under the same lock
}

std::uint16_t Listener::port() const {
  std::lock_guard lock{mutex_};
  return port_;
}

void Listener::spawn(sim::Task task) { loop_->spawn(std::move(task), &tasks_); }

void Listener::close(Conn& conn) {
  if (conn.closed) return;
  conn.closed = true;
  loop_->cancel_fd(conn.fd);
  tcp_close(conn.fd);
  conn.fd = -1;
  conn.out_ready.cancel();
  conns_.erase(conn.id);  // shared_ptr keeps it alive for its coroutines
}

sim::Task Listener::accept_task(Listener* l, int listener) {
  net::EventLoop& loop = *l->loop_;
  for (;;) {
    const bool ok = co_await loop.readable(listener);
    if (!ok || l->stopping_.load(std::memory_order_acquire)) co_return;
    for (;;) {  // drain the whole accept burst before sleeping again
      const long fd = tcp_accept_nonblocking(listener);
      if (fd == kWouldBlock) break;
      if (fd < 0) co_return;  // listener is gone
      auto conn =
          std::make_shared<Conn>(loop, l->next_conn_id_++, static_cast<int>(fd));
      l->conns_.emplace(conn->id, conn);
      l->serve_(conn);
    }
  }
}

sim::Task Listener::teardown_task(Listener* l, int listener,
                                  std::shared_ptr<std::promise<void>> done) {
  l->loop_->cancel_fd(listener);
  tcp_close(listener);
  // Snapshot: close() erases from conns_ while we iterate.
  std::vector<std::shared_ptr<Conn>> open;
  open.reserve(l->conns_.size());
  for (auto& [id, conn] : l->conns_) open.push_back(conn);
  for (auto& conn : open) l->close(*conn);
  co_await l->tasks_;  // the last coroutine using this listener ended
  done->set_value();
}

}  // namespace omig::transport
