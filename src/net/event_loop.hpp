// Single-threaded proactor event loop for the live runtime.
//
// One thread owns all I/O state: fd readiness interest, a hashed timer
// wheel, a ready queue of coroutines to resume, and the set of spawned
// coroutine tasks. Protocol code is written as straight-line C++20
// coroutines (the same `sim::Task` the simulator uses, so frames come
// from the thread-local FramePool) that `co_await` readiness, timers
// and events; the loop multiplexes thousands of them over one epoll
// descriptor (poller.hpp) instead of one thread each.
//
// Threading contract — the core of the design:
//   * `post(fn)` and `stop()` are the ONLY thread-safe entry points
//     (plus `spawn`, which routes through post off-loop). Everything
//     else — timers, awaiters, cancel_fd, Event — is loop-thread only
//     and therefore needs no locks.
//   * The cross-thread seam is one mutex-guarded vector drained at the
//     top of every iteration plus an eventfd wakeup inside the poller;
//     both are TSan-clean by construction (scripts/check.sh covers the
//     EventLoop suites under -fsanitize=thread).
//   * Coroutines are never resumed from inside another coroutine's
//     frame or an event dispatch: every wakeup goes through
//     `schedule()` onto the ready queue and is resumed from the loop
//     body. That rules out reentrancy bugs (a resumed waiter tearing
//     down the connection whose event list is being walked).
//
// Timers are a hashed wheel (1 ms tick, 512 slots, absolute-deadline
// entries so far-out timers just ride around the wheel) — O(1) arm,
// O(slot) fire, no per-timer allocation beyond the callback.
//
// Lifecycle: awaiters hold no loop resources after resumption; the
// discipline for fds is cancel_fd() *before* close(). stop() cancels
// every fd waiter (they resume with `false` and unwind), drops pending
// timers and posts (dropping a posted send breaks its reply promise —
// exactly the transport's "lost in flight" signal), then destroys any
// still-suspended task frames.
#pragma once

#include <atomic>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/poller.hpp"
#include "sim/task.hpp"

namespace omig::net {

class TaskGroup;

class EventLoop {
public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the loop on a background thread until stop(). Idempotent.
  void start();
  /// Runs the loop on the calling thread until stop() (tests mostly).
  void run();
  /// Thread-safe, idempotent. Wakes the loop, waits for it to finish
  /// its shutdown pass, and joins the start() thread if any.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool on_loop_thread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_acquire);
  }

  /// Thread-safe: runs `fn` on the loop thread in FIFO order. Posts
  /// made after stop() (or never drained before it) are dropped —
  /// captured promises break, which is the transport's loss signal.
  void post(std::function<void()> fn);

  /// Adopts and starts a coroutine task on the loop. Callable from any
  /// thread; the task body always executes on the loop thread. The
  /// loop owns the frame: finished tasks are reaped each iteration,
  /// still-suspended ones are destroyed at stop(). With a `group`, the
  /// task is a member of it until it ends.
  void spawn(sim::Task task, TaskGroup* group = nullptr);

  // ---- loop-thread-only API ------------------------------------------

  /// Arms `fn` to run after `delay`. Returns a nonzero id for
  /// cancel_timer. During shutdown new timers are dropped (returns 0).
  std::uint64_t run_after(std::chrono::milliseconds delay,
                          std::function<void()> fn);
  /// True if the timer was still pending (the callback will not run).
  bool cancel_timer(std::uint64_t id);

  /// Resumes any waiter on `fd` with `false` and drops poller
  /// interest. Call before close(fd) whenever the fd was waited on.
  void cancel_fd(int fd);

  /// Queues `h` for resumption from the loop body (never inline).
  void schedule(std::coroutine_handle<> h);

  class [[nodiscard]] SleepAwaiter {
  public:
    SleepAwaiter(EventLoop& loop, std::chrono::milliseconds delay)
        : loop_(loop), delay_(delay) {}
    bool await_ready() const noexcept { return delay_.count() <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      loop_.add_sleep(delay_, h);
    }
    void await_resume() const noexcept {}

  private:
    EventLoop& loop_;
    std::chrono::milliseconds delay_;
  };

  class [[nodiscard]] FdAwaiter {
  public:
    FdAwaiter(EventLoop& loop, int fd, bool write)
        : loop_(loop), fd_(fd), write_(write) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      loop_.add_fd_wait(fd_, write_, h, &ok_);
    }
    /// False: the wait was cancelled (cancel_fd or loop shutdown).
    [[nodiscard]] bool await_resume() const noexcept { return ok_; }

  private:
    EventLoop& loop_;
    int fd_;
    bool write_;
    bool ok_ = false;
  };

  /// `co_await loop.sleep_for(d)` — suspends via the timer wheel.
  [[nodiscard]] SleepAwaiter sleep_for(std::chrono::milliseconds delay) {
    return SleepAwaiter{*this, delay};
  }
  /// `co_await loop.readable(fd)` → bool (false = cancelled).
  [[nodiscard]] FdAwaiter readable(int fd) { return FdAwaiter{*this, fd, false}; }
  /// `co_await loop.writable(fd)` → bool (false = cancelled).
  [[nodiscard]] FdAwaiter writable(int fd) { return FdAwaiter{*this, fd, true}; }

  /// Tasks whose body threw (exceptions are swallowed and counted —
  /// protocol coroutines signal failure through state, not throws).
  [[nodiscard]] std::uint64_t tasks_failed() const {
    return tasks_failed_.load(std::memory_order_relaxed);
  }

private:
  friend class Event;

  struct Waiter {
    std::coroutine_handle<> handle{};
    bool* ok = nullptr;
  };
  struct FdWaits {
    Waiter read;
    Waiter write;
  };
  struct TimerEntry {
    std::uint64_t id = 0;
    std::uint64_t deadline_tick = 0;
    std::function<void()> fn;            // either fn …
    std::coroutine_handle<> handle{};    // … or a sleeping coroutine
  };

  static constexpr std::size_t kWheelSlots = 512;  // power of two
  static constexpr std::chrono::milliseconds kTick{1};

  void loop_body();
  void drain_posted();
  void advance_timers();
  void drain_ready();
  void reap_tasks();
  [[nodiscard]] std::chrono::milliseconds compute_timeout();
  void dispatch(const std::vector<PollerEvent>& events);
  void shutdown_on_loop();
  void spawn_on_loop(sim::Task task, TaskGroup* group);
  void task_finished(std::uint64_t id, TaskGroup* group);
  static sim::Task task_wrapper(EventLoop* loop, sim::Task inner,
                                std::uint64_t id, TaskGroup* group);

  [[nodiscard]] std::uint64_t now_tick() const;
  void add_timer(TimerEntry entry, std::chrono::milliseconds delay);
  void add_sleep(std::chrono::milliseconds delay, std::coroutine_handle<> h);
  void add_fd_wait(int fd, bool write, std::coroutine_handle<> h, bool* ok);
  void sync_fd_interest(int fd, const FdWaits& waits);

  Poller poller_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> finished_{false};
  std::atomic<std::thread::id> loop_thread_{};
  std::thread thread_;
  std::mutex lifecycle_mutex_;  // start/stop idempotence

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;

  std::vector<std::coroutine_handle<>> ready_;
  std::unordered_map<int, FdWaits> fd_waits_;

  std::vector<std::vector<TimerEntry>> wheel_{kWheelSlots};
  std::unordered_set<std::uint64_t> live_timers_;
  std::uint64_t wheel_tick_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::chrono::steady_clock::time_point epoch_;

  std::unordered_map<std::uint64_t, sim::Task> tasks_;
  std::vector<std::uint64_t> finished_tasks_;
  std::uint64_t next_task_id_ = 1;
  std::atomic<std::uint64_t> tasks_failed_{0};
  bool shutting_down_ = false;

  std::vector<PollerEvent> events_;
};

/// Auto-reset, single-waiter wakeup flag for coroutines on one loop.
/// Loop-thread only (like everything per-connection). The writer
/// coroutine of a connection parks on it between bursts:
///
///   while (queue.empty()) { if (!co_await ev.wait()) co_return; }
///
/// set() while nobody waits latches (next wait completes immediately);
/// cancel() wakes the waiter with `false` without latching.
class Event {
public:
  explicit Event(EventLoop& loop) : loop_(&loop) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void set() {
    if (waiter_.handle) {
      *waiter_.ok = true;
      auto h = waiter_.handle;
      waiter_ = {};
      loop_->schedule(h);
    } else {
      set_ = true;
    }
  }

  void cancel() {
    if (waiter_.handle) {
      *waiter_.ok = false;
      auto h = waiter_.handle;
      waiter_ = {};
      loop_->schedule(h);
    }
  }

  class [[nodiscard]] Awaiter {
  public:
    explicit Awaiter(Event& ev) : ev_(ev) {}
    bool await_ready() noexcept {
      if (ev_.set_) {
        ev_.set_ = false;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      ev_.waiter_.handle = h;
      ev_.waiter_.ok = &ok_;
    }
    [[nodiscard]] bool await_resume() const noexcept { return ok_; }

  private:
    Event& ev_;
    bool ok_ = true;
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{*this}; }

private:
  struct Waiter {
    std::coroutine_handle<> handle{};
    bool* ok = nullptr;
  };
  EventLoop* loop_;
  bool set_ = false;
  Waiter waiter_{};
};

/// The coroutines one component spawned on a shared loop, so that its
/// teardown can `co_await group` before the component is freed: the
/// waiter resumes when the last member ends, and at once when there is
/// none. Loop-thread only; one waiter at a time.
class TaskGroup {
public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  bool await_ready() const noexcept { return live_ == 0; }
  void await_suspend(std::coroutine_handle<> h) noexcept { waiter_ = h; }
  void await_resume() const noexcept {}

private:
  friend class EventLoop;
  std::size_t live_ = 0;
  std::coroutine_handle<> waiter_{};
};

}  // namespace omig::net
