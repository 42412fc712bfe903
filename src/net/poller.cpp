#include "net/poller.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>

#include "util/assert.hpp"

namespace omig::net {

Poller::Poller() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  OMIG_ASSERT(epfd_ >= 0);
  wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  OMIG_ASSERT(wakefd_ >= 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakefd_;
  [[maybe_unused]] int rc = ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
  OMIG_ASSERT(rc == 0);
}

Poller::~Poller() {
  ::close(wakefd_);
  ::close(epfd_);
}

void Poller::update(int fd, bool read, bool write) {
  epoll_event ev{};
  ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u) | EPOLLONESHOT;
  ev.data.fd = fd;
  if (!read && !write) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    return;
  }
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0) return;
  if (errno == ENOENT) ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
}

void Poller::wait(std::chrono::milliseconds timeout,
                  std::vector<PollerEvent>& out) {
  std::array<epoll_event, 128> evs{};
  int ms = timeout.count() < 0 ? -1 : static_cast<int>(timeout.count());
  int n = ::epoll_wait(epfd_, evs.data(), static_cast<int>(evs.size()), ms);
  // n <= 0 is a timeout or EINTR: a spurious wakeup is fine.
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = evs[static_cast<std::size_t>(i)];
    if (ev.data.fd == wakefd_) {
      std::uint64_t drain = 0;
      [[maybe_unused]] ssize_t r = ::read(wakefd_, &drain, sizeof drain);
      continue;
    }
    // EPOLLERR/EPOLLHUP wake every armed direction: the waiter's own
    // read()/write() call observes and classifies the failure.
    bool broken = (ev.events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(PollerEvent{ev.data.fd,
                              (ev.events & EPOLLIN) != 0 || broken,
                              (ev.events & EPOLLOUT) != 0 || broken});
  }
}

void Poller::wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wakefd_, &one, sizeof one);
}

std::unique_ptr<Poller> make_poller() { return std::make_unique<Poller>(); }

}  // namespace omig::net
