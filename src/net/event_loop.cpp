#include "net/event_loop.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace omig::net {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {}

EventLoop::~EventLoop() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void EventLoop::start() {
  std::lock_guard lock{lifecycle_mutex_};
  if (running_.load(std::memory_order_acquire) || thread_.joinable() ||
      finished_.load(std::memory_order_acquire)) {
    return;  // loops are single-use: once stopped, build a new one
  }
  thread_ = std::thread([this] { run(); });
  // Wait until the loop thread is live so post()/spawn() callers never
  // race a not-yet-started loop into the shutdown drop path.
  while (!running_.load(std::memory_order_acquire) &&
         !stop_requested_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

void EventLoop::run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_body();
  shutdown_on_loop();
  finished_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  loop_thread_.store(std::thread::id{}, std::memory_order_release);
}

void EventLoop::stop() {
  stop_requested_.store(true, std::memory_order_release);
  poller_.wake();
  if (on_loop_thread()) return;  // loop exits after this iteration
  std::lock_guard lock{lifecycle_mutex_};
  if (thread_.joinable()) thread_.join();
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard lock{post_mutex_};
    posted_.push_back(std::move(fn));
  }
  poller_.wake();
}

void EventLoop::spawn(sim::Task task, TaskGroup* group) {
  if (on_loop_thread()) {
    spawn_on_loop(std::move(task), group);
    return;
  }
  // std::function requires a copyable callable; shuttle the move-only
  // task through a shared_ptr.
  auto boxed = std::make_shared<sim::Task>(std::move(task));
  post([this, boxed, group] { spawn_on_loop(std::move(*boxed), group); });
}

void EventLoop::spawn_on_loop(sim::Task task, TaskGroup* group) {
  OMIG_ASSERT(on_loop_thread());
  if (shutting_down_ || !task.valid()) return;
  std::uint64_t id = next_task_id_++;
  auto [it, inserted] =
      tasks_.emplace(id, task_wrapper(this, std::move(task), id, group));
  OMIG_ASSERT(inserted);
  if (group != nullptr) ++group->live_;
  schedule(it->second.handle());
}

sim::Task EventLoop::task_wrapper(EventLoop* loop, sim::Task inner,
                                  std::uint64_t id, TaskGroup* group) {
  try {
    co_await inner;
  } catch (...) {
    loop->tasks_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  loop->task_finished(id, group);
}

void EventLoop::task_finished(std::uint64_t id, TaskGroup* group) {
  finished_tasks_.push_back(id);
  if (group != nullptr && --group->live_ == 0 && group->waiter_) {
    schedule(std::exchange(group->waiter_, {}));
  }
}

void EventLoop::schedule(std::coroutine_handle<> h) {
  OMIG_ASSERT(on_loop_thread());
  OMIG_ASSERT(h);
  ready_.push_back(h);
}

// ---- timers -----------------------------------------------------------

std::uint64_t EventLoop::now_tick() const {
  return static_cast<std::uint64_t>(
      (std::chrono::steady_clock::now() - epoch_) / kTick);
}

void EventLoop::add_timer(TimerEntry entry, std::chrono::milliseconds delay) {
  OMIG_ASSERT(on_loop_thread());
  std::uint64_t ticks =
      delay.count() <= 0 ? 0 : static_cast<std::uint64_t>(delay / kTick);
  entry.deadline_tick = now_tick() + ticks;
  // A deadline the wheel cursor already passed would never fire; clamp
  // onto the cursor so it goes off on the next advance.
  entry.deadline_tick = std::max(entry.deadline_tick, wheel_tick_);
  live_timers_.insert(entry.id);
  wheel_[entry.deadline_tick % kWheelSlots].push_back(std::move(entry));
}

std::uint64_t EventLoop::run_after(std::chrono::milliseconds delay,
                                   std::function<void()> fn) {
  if (shutting_down_) return 0;
  TimerEntry entry;
  entry.id = next_timer_id_++;
  entry.fn = std::move(fn);
  std::uint64_t id = entry.id;
  add_timer(std::move(entry), delay);
  return id;
}

bool EventLoop::cancel_timer(std::uint64_t id) {
  OMIG_ASSERT(on_loop_thread());
  return live_timers_.erase(id) > 0;  // fire-time check skips the entry
}

void EventLoop::add_sleep(std::chrono::milliseconds delay,
                          std::coroutine_handle<> h) {
  TimerEntry entry;
  entry.id = next_timer_id_++;
  entry.handle = h;
  add_timer(std::move(entry), delay);
}

void EventLoop::advance_timers() {
  std::uint64_t now = now_tick();
  if (live_timers_.empty()) {
    // Nothing armed: snap the cursor so a long idle block doesn't walk
    // every intervening tick.
    wheel_tick_ = std::max(wheel_tick_, now + 1);
    return;
  }
  std::vector<TimerEntry> due;
  while (wheel_tick_ <= now) {
    auto& slot = wheel_[wheel_tick_ % kWheelSlots];
    for (std::size_t i = 0; i < slot.size();) {
      if (slot[i].deadline_tick <= wheel_tick_) {
        due.push_back(std::move(slot[i]));
        slot[i] = std::move(slot.back());
        slot.pop_back();
      } else {
        ++i;
      }
    }
    ++wheel_tick_;
  }
  // Fire after the slot scan: callbacks may arm new timers into the
  // very slots being walked.
  for (TimerEntry& entry : due) {
    if (live_timers_.erase(entry.id) == 0) continue;  // cancelled
    if (entry.handle) {
      schedule(entry.handle);
    } else if (entry.fn) {
      entry.fn();
    }
  }
}

std::chrono::milliseconds EventLoop::compute_timeout() {
  {
    std::lock_guard lock{post_mutex_};
    if (!posted_.empty()) return std::chrono::milliseconds{0};
  }
  if (!ready_.empty()) return std::chrono::milliseconds{0};
  if (live_timers_.empty()) return std::chrono::milliseconds{-1};
  // First non-empty slot bounds the next deadline from below; an entry
  // still riding around the wheel just causes a spurious wakeup.
  for (std::uint64_t d = 0; d < kWheelSlots; ++d) {
    if (!wheel_[(wheel_tick_ + d) % kWheelSlots].empty()) {
      return std::chrono::milliseconds{static_cast<long>(d) + 1};
    }
  }
  return std::chrono::milliseconds{kWheelSlots};
}

// ---- fd readiness -----------------------------------------------------

void EventLoop::add_fd_wait(int fd, bool write, std::coroutine_handle<> h,
                            bool* ok) {
  OMIG_ASSERT(on_loop_thread());
  OMIG_ASSERT(fd >= 0);
  FdWaits& waits = fd_waits_[fd];
  Waiter& slot = write ? waits.write : waits.read;
  OMIG_ASSERT(!slot.handle);  // one waiter per direction
  slot.handle = h;
  slot.ok = ok;
  sync_fd_interest(fd, waits);
}

void EventLoop::sync_fd_interest(int fd, const FdWaits& waits) {
  poller_.update(fd, static_cast<bool>(waits.read.handle),
                  static_cast<bool>(waits.write.handle));
}

void EventLoop::cancel_fd(int fd) {
  OMIG_ASSERT(on_loop_thread());
  poller_.update(fd, false, false);  // also drops a disarmed registration
  auto it = fd_waits_.find(fd);
  if (it == fd_waits_.end()) return;
  for (Waiter* w : {&it->second.read, &it->second.write}) {
    if (w->handle) {
      *w->ok = false;
      schedule(w->handle);
      *w = {};
    }
  }
  fd_waits_.erase(it);
}

void EventLoop::dispatch(const std::vector<PollerEvent>& events) {
  for (const PollerEvent& ev : events) {
    auto it = fd_waits_.find(ev.fd);
    if (it == fd_waits_.end()) continue;  // interest dropped meanwhile
    FdWaits& waits = it->second;
    if (ev.readable && waits.read.handle) {
      *waits.read.ok = true;
      schedule(waits.read.handle);
      waits.read = {};
    }
    if (ev.writable && waits.write.handle) {
      *waits.write.ok = true;
      schedule(waits.write.handle);
      waits.write = {};
    }
    // The report disarmed the one-shot registration: re-arm only what
    // still waits, and keep the fd registered for its next waiter.
    if (!waits.read.handle && !waits.write.handle) {
      fd_waits_.erase(it);
    } else {
      sync_fd_interest(ev.fd, waits);
    }
  }
}

// ---- loop body --------------------------------------------------------

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard lock{post_mutex_};
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::drain_ready() {
  std::vector<std::coroutine_handle<>> batch;
  while (!ready_.empty()) {
    batch.clear();
    batch.swap(ready_);  // resumptions may schedule more
    for (std::coroutine_handle<> h : batch) h.resume();
  }
}

void EventLoop::reap_tasks() {
  for (std::uint64_t id : finished_tasks_) tasks_.erase(id);
  finished_tasks_.clear();
}

void EventLoop::loop_body() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    drain_posted();
    advance_timers();
    drain_ready();
    reap_tasks();
    if (stop_requested_.load(std::memory_order_acquire)) break;
    events_.clear();
    poller_.wait(compute_timeout(), events_);
    dispatch(events_);
  }
}

void EventLoop::shutdown_on_loop() {
  shutting_down_ = true;
  // Posts that never ran are dropped: captured reply promises break,
  // which is the transport's "lost in flight" signal.
  {
    std::lock_guard lock{post_mutex_};
    posted_.clear();
  }
  // Drop timers (callbacks and sleepers; sleeping coroutine frames are
  // destroyed with their task below).
  live_timers_.clear();
  for (auto& slot : wheel_) slot.clear();
  // Cancel every fd wait and let the waiters unwind: readers/writers
  // observe `false`, fail their connection, and finish.
  std::vector<int> fds;
  fds.reserve(fd_waits_.size());
  for (const auto& [fd, waits] : fd_waits_) fds.push_back(fd);
  for (int fd : fds) cancel_fd(fd);
  for (int round = 0; round < 8 && !ready_.empty(); ++round) {
    drain_ready();
    reap_tasks();
    fds.clear();
    for (const auto& [fd, waits] : fd_waits_) fds.push_back(fd);
    for (int fd : fds) cancel_fd(fd);
  }
  reap_tasks();
  // Whatever is still suspended (e.g. parked on an Event nobody will
  // ever set) is destroyed outright.
  tasks_.clear();
  fd_waits_.clear();
  ready_.clear();
}

}  // namespace omig::net
