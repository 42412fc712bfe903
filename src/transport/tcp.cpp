#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

namespace omig::transport {

namespace {

/// Frames are small and latency-sensitive; Nagle buffering would batch a
/// request behind an unrelated reply.
void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Big backlog: the async client side can dial thousands of connections
/// in one burst (the kernel clamps to somaxconn).
constexpr int kListenBacklog = 4096;

bool make_addr(const std::string& host, std::uint16_t port,
               sockaddr_in& addr) {
  addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace

int tcp_listen(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  if (!make_addr(host, port, addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, kListenBacklog) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t tcp_local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  if (!make_addr(host, port, addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

bool tcp_send_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const auto n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

long tcp_recv_some(int fd, std::uint8_t* buffer, std::size_t size) {
  for (;;) {
    const auto n = ::recv(fd, buffer, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

int tcp_connect_begin(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  if (!make_addr(host, port, addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  set_nodelay(fd);
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;  // localhost fast path: completed synchronously
    }
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) return fd;
    ::close(fd);
    return -1;
  }
}

bool tcp_connect_done(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return false;
  return err == 0;
}

long tcp_accept_nonblocking(int listener_fd) {
  for (;;) {
    const int fd = ::accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

long tcp_write_some(int fd, const std::uint8_t* data, std::size_t size) {
  for (;;) {
    const auto n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

long tcp_read_some(int fd, std::uint8_t* buffer, std::size_t size) {
  for (;;) {
    const auto n = ::recv(fd, buffer, size, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return kWouldBlock;
    return -1;
  }
}

void tcp_close(int fd) {
  if (fd >= 0) (void)::close(fd);
}

}  // namespace omig::transport
