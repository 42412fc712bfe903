// Thin POSIX TCP helpers for the localhost transport.
//
// Deliberately minimal: IPv4 loopback by default, no external
// dependencies. The blocking calls serve simple one-shot clients (a
// metrics scrape); the transport and the frame server use the
// nonblocking variants on an event loop. Everything returns -1 / false on
// failure and never throws; callers decide whether a failure is retryable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace omig::transport {

/// Binds and listens on `host:port` (port 0 = ephemeral) with
/// SO_REUSEADDR, so a restarted node can rebind its old port immediately.
/// Returns the nonblocking listening fd, or -1.
[[nodiscard]] int tcp_listen(const std::string& host, std::uint16_t port);

/// Port a listening (or connected) socket is bound to locally; 0 on error.
[[nodiscard]] std::uint16_t tcp_local_port(int fd);

/// Blocking connect to `host:port`; returns the fd (TCP_NODELAY set) or -1.
[[nodiscard]] int tcp_connect(const std::string& host, std::uint16_t port);

/// Writes the whole buffer (retrying short writes). False = peer gone.
[[nodiscard]] bool tcp_send_all(int fd, const std::uint8_t* data,
                                std::size_t size);

/// Reads up to `size` bytes. >0 bytes read, 0 = orderly EOF, <0 = error.
[[nodiscard]] long tcp_recv_some(int fd, std::uint8_t* buffer,
                                 std::size_t size);

/// Closes the fd (ignores errors and -1).
void tcp_close(int fd);

// --- nonblocking variants for the event loop (net/event_loop.hpp) ----------
//
// Would-block is a distinct, expected outcome on the loop — the caller
// parks on a readiness awaiter — so these helpers report it explicitly
// (kWouldBlock) instead of folding it into the error case.

inline constexpr long kWouldBlock = -2;

/// Starts a nonblocking connect to `host:port`: returns a nonblocking,
/// TCP_NODELAY fd whose connect is complete or in progress (await
/// writability, then check tcp_connect_done), or -1 on immediate failure.
[[nodiscard]] int tcp_connect_begin(const std::string& host,
                                    std::uint16_t port);

/// After the fd turned writable: did the nonblocking connect succeed?
[[nodiscard]] bool tcp_connect_done(int fd);

/// Nonblocking accept. Returns the connection fd (nonblocking,
/// TCP_NODELAY), kWouldBlock when the backlog is empty, or -1 on error.
[[nodiscard]] long tcp_accept_nonblocking(int listener_fd);

/// One nonblocking send (MSG_NOSIGNAL): >0 bytes written, kWouldBlock,
/// or -1 (peer gone).
[[nodiscard]] long tcp_write_some(int fd, const std::uint8_t* data,
                                  std::size_t size);

/// One nonblocking recv: >0 bytes read, 0 = orderly EOF, kWouldBlock,
/// or -1 (error).
[[nodiscard]] long tcp_read_some(int fd, std::uint8_t* buffer,
                                 std::size_t size);

}  // namespace omig::transport
