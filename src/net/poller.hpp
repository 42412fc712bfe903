// Readiness poller for the event loop: epoll(7).
//
// The loop (event_loop.hpp) tracks which coroutine waits on which fd and
// in which direction, and asks the Poller to block until something
// happens. `update` declares the directions the loop currently cares
// about for an fd (read, write, both, or none), and `wait` reports fds
// that became ready. Error/hangup conditions are reported as ready in
// every armed direction so the waiter wakes up and observes the failure
// from the actual read/write call — the loop never interprets errors
// itself.
//
// Level-triggered and one-shot: a report disarms the fd, and the loop
// re-arms it when the next waiter parks — one epoll_ctl per wait. The fd
// stays registered while disarmed; update(fd, false, false) removes it
// (the loop does so before the fd is closed). Cross-thread wake() goes
// through an eventfd that stays registered for reading; a wake() written
// before epoll_wait still registers (the counter stays nonzero until
// drained).
#pragma once

#include <chrono>
#include <memory>
#include <vector>

namespace omig::net {

/// One readiness report from Poller::wait.
struct PollerEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
};

class Poller {
public:
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Name for logs and machine records.
  [[nodiscard]] const char* name() const { return "epoll"; }

  /// Arms `fd` for one report: when readable (`read`) and/or writable
  /// (`write`). Both false removes the fd entirely. Idempotent.
  void update(int fd, bool read, bool write);

  /// Blocks up to `timeout` (negative = forever, zero = poll) and
  /// appends readiness reports to `out`. Spurious wakeups (empty `out`)
  /// are allowed — e.g. a cross-thread `wake()`.
  void wait(std::chrono::milliseconds timeout, std::vector<PollerEvent>& out);

  /// Thread-safe: interrupts a concurrent `wait`. Used by the loop's
  /// cross-thread post path.
  void wake();

private:
  int epfd_ = -1;
  int wakefd_ = -1;
};

/// A standalone poller, e.g. to name the one the event loop runs on.
std::unique_ptr<Poller> make_poller();

}  // namespace omig::net
