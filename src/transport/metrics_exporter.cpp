#include "transport/metrics_exporter.hpp"

#include "transport/tcp.hpp"

namespace omig::transport {

namespace {

/// Scrape requests are a request line and a few headers.
constexpr std::size_t kMaxRequestBytes = 8192;

}  // namespace

MetricsExporter::MetricsExporter(obs::MetricsRegistry& registry,
                                 net::EventLoop* loop)
    : Listener{loop,
               [this](const std::shared_ptr<Conn>& conn) {
                 spawn(serve_task(this, conn));
               }},
      registry_{registry} {}

sim::Task MetricsExporter::serve_task(MetricsExporter* e,
                                      std::shared_ptr<Conn> conn) {
  net::EventLoop& loop = e->loop();
  // Read the request until the header terminator.
  std::string request;
  std::uint8_t chunk[512];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    if (request.size() >= kMaxRequestBytes) {  // not a scrape: no answer
      e->close(*conn);
      co_return;
    }
    const bool ok = co_await loop.readable(conn->fd);
    if (!ok || conn->closed) co_return;  // torn down
    const long n = tcp_read_some(conn->fd, chunk, sizeof chunk);
    if (n == kWouldBlock) continue;
    if (n <= 0) {
      e->close(*conn);
      co_return;
    }
    request.append(reinterpret_cast<const char*>(chunk),
                   static_cast<std::size_t>(n));
  }
  const std::string body = e->registry_.to_prometheus();
  const std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "Connection: close\r\n"
      "\r\n" + body;
  std::size_t off = 0;
  while (off < response.size()) {
    const long n = tcp_write_some(
        conn->fd, reinterpret_cast<const std::uint8_t*>(response.data()) + off,
        response.size() - off);
    if (n == kWouldBlock) {
      const bool ok = co_await loop.writable(conn->fd);
      if (!ok || conn->closed) co_return;
      continue;
    }
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  e->close(*conn);
}

}  // namespace omig::transport
