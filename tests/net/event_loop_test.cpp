// EventLoop: the live runtime's single-threaded proactor
// (src/net/event_loop.hpp). Exercises the cross-thread post seam (the
// one place two threads meet — TSan covers these suites via
// scripts/check.sh), the timer wheel, fd readiness awaiters on real
// pipes/socketpairs, cancellation, task-group drains, and shutdown
// semantics.
#include "net/event_loop.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace omig::net {
namespace {

using namespace std::chrono_literals;

TEST(EventLoopTest, PostRunsInOrderOnLoopThread) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  std::promise<std::thread::id> done;
  loop.post([&] { order.push_back(1); });
  loop.post([&] { order.push_back(2); });
  loop.post([&] {
    order.push_back(3);
    done.set_value(std::this_thread::get_id());
  });
  std::thread::id loop_tid = done.get_future().get();
  EXPECT_NE(loop_tid, std::this_thread::get_id());
  loop.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, CrossThreadPostsFromManyThreadsAllRun) {
  EventLoop loop;
  loop.start();
  constexpr int kThreads = 8;
  constexpr int kPostsPerThread = 200;
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) {
        loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : threads) t.join();
  std::promise<void> flushed;
  loop.post([&] { flushed.set_value(); });
  flushed.get_future().get();
  EXPECT_EQ(ran.load(), kThreads * kPostsPerThread);
  loop.stop();
}

sim::Task count_task(std::atomic<int>* counter) {
  counter->fetch_add(1);
  co_return;
}

sim::Task flush_task(std::promise<void>* p) {
  p->set_value();
  co_return;
}

TEST(EventLoopTest, SpawnRunsTaskOnLoop) {
  EventLoop loop;
  loop.start();
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) loop.spawn(count_task(&counter));
  // Spawns start in FIFO order, so a flush task spawned last observes
  // every earlier task's first step.
  std::promise<void> flushed;
  loop.spawn(flush_task(&flushed));
  flushed.get_future().get();
  EXPECT_EQ(counter.load(), 10);
  loop.stop();
}

sim::Task sleeping_task(EventLoop* loop, std::chrono::milliseconds d,
                        std::vector<int>* order, int tag) {
  co_await loop->sleep_for(d);
  order->push_back(tag);
}

TEST(EventLoopTest, SleepersWakeInDeadlineOrder) {
  EventLoop loop;
  loop.start();
  std::vector<int> order;
  loop.spawn(sleeping_task(&loop, 30ms, &order, 3));
  loop.spawn(sleeping_task(&loop, 1ms, &order, 1));
  loop.spawn(sleeping_task(&loop, 15ms, &order, 2));
  std::this_thread::sleep_for(120ms);
  loop.stop();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, TimerBeyondOneWheelRotationStillFires) {
  // 600ms > 512 slots × 1ms tick: the entry must ride the wheel around.
  EventLoop loop;
  loop.start();
  std::promise<void> fired;
  auto armed_at = std::chrono::steady_clock::now();
  loop.post([&] {
    loop.run_after(600ms, [&] { fired.set_value(); });
  });
  fired.get_future().get();
  EXPECT_GE(std::chrono::steady_clock::now() - armed_at, 590ms);
  loop.stop();
}

TEST(EventLoopTest, CancelTimerPreventsCallback) {
  EventLoop loop;
  loop.start();
  std::atomic<bool> ran{false};
  std::promise<void> after;
  loop.post([&] {
    std::uint64_t id = loop.run_after(20ms, [&] { ran = true; });
    EXPECT_TRUE(loop.cancel_timer(id));
    EXPECT_FALSE(loop.cancel_timer(id));  // already gone
    loop.run_after(60ms, [&] { after.set_value(); });
  });
  after.get_future().get();
  EXPECT_FALSE(ran.load());
  loop.stop();
}

sim::Task echo_reader(EventLoop* loop, int fd, std::string* out,
                      std::promise<bool>* done) {
  bool ok = co_await loop->readable(fd);
  if (ok) {
    char buf[64];
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) out->assign(buf, static_cast<std::size_t>(n));
  }
  done->set_value(ok);
}

TEST(EventLoopTest, ReadableWakesWhenDataArrives) {
  EventLoop loop;
  loop.start();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string got;
  std::promise<bool> done;
  loop.spawn(echo_reader(&loop, sv[0], &got, &done));
  std::this_thread::sleep_for(10ms);  // reader parks before data arrives
  ASSERT_EQ(::write(sv[1], "ping", 4), 4);
  EXPECT_TRUE(done.get_future().get());
  EXPECT_EQ(got, "ping");
  loop.stop();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(EventLoopTest, WritableIsImmediateOnFreshSocket) {
  EventLoop loop;
  loop.start();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::promise<bool> done;
  loop.spawn([](EventLoop* l, int fd, std::promise<bool>* p) -> sim::Task {
    p->set_value(co_await l->writable(fd));
  }(&loop, sv[0], &done));
  EXPECT_TRUE(done.get_future().get());
  loop.stop();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(EventLoopTest, CancelFdResumesWaiterWithFalse) {
  EventLoop loop;
  loop.start();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string got;
  std::promise<bool> done;
  loop.spawn(echo_reader(&loop, sv[0], &got, &done));
  std::this_thread::sleep_for(10ms);
  loop.post([&] { loop.cancel_fd(sv[0]); });
  EXPECT_FALSE(done.get_future().get());
  EXPECT_TRUE(got.empty());
  loop.stop();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(EventLoopTest, StopCancelsParkedWaiters) {
  EventLoop loop;
  loop.start();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string got;
  std::promise<bool> done;
  loop.spawn(echo_reader(&loop, sv[0], &got, &done));
  std::this_thread::sleep_for(10ms);
  loop.stop();  // shutdown pass resumes the waiter with false
  EXPECT_FALSE(done.get_future().get());
  ::close(sv[0]);
  ::close(sv[1]);
}

sim::Task event_waiter(Event* ev, std::vector<bool>* results,
                       std::promise<void>* done) {
  results->push_back(co_await ev->wait());
  results->push_back(co_await ev->wait());
  done->set_value();
}

TEST(EventLoopTest, EventLatchesAndWakes) {
  EventLoop loop;
  loop.start();
  Event ev{loop};
  std::vector<bool> results;
  std::promise<void> done;
  loop.post([&] {
    ev.set();  // latched: first wait completes immediately
    loop.spawn(event_waiter(&ev, &results, &done));
    loop.run_after(5ms, [&] { ev.set(); });  // wakes the parked second wait
  });
  done.get_future().get();
  EXPECT_EQ(results, (std::vector<bool>{true, true}));
  loop.stop();
}

TEST(EventLoopTest, EventCancelWakesWithFalse) {
  EventLoop loop;
  loop.start();
  Event ev{loop};
  std::vector<bool> results;
  std::promise<void> done;
  loop.post([&] {
    loop.spawn([](Event* e, std::vector<bool>* r,
                  std::promise<void>* p) -> sim::Task {
      r->push_back(co_await e->wait());
      p->set_value();
    }(&ev, &results, &done));
    loop.run_after(5ms, [&] { ev.cancel(); });
  });
  done.get_future().get();
  EXPECT_EQ(results, (std::vector<bool>{false}));
  loop.stop();
}

sim::Task group_member(Event* release, bool throw_on_release) {
  (void)co_await release->wait();
  if (throw_on_release) throw std::runtime_error{"member failed"};
}

sim::Task drain_waiter(TaskGroup* group, std::promise<void>* drained) {
  co_await *group;
  drained->set_value();
}

/// Runs `fn` on the loop and waits until it has run.
template <class Fn>
void on_loop(EventLoop& loop, Fn fn) {
  std::promise<void> ran;
  loop.post([&] {
    fn();
    ran.set_value();
  });
  ran.get_future().get();
}

TEST(EventLoopTest, TaskGroupDrainResumesWhenLastMemberEnds) {
  EventLoop loop;
  loop.start();
  TaskGroup group;
  Event first{loop};
  Event second{loop};
  std::promise<void> drained;
  std::future<void> drained_future = drained.get_future();
  on_loop(loop, [&] {
    loop.spawn(group_member(&first, false), &group);
    loop.spawn(group_member(&second, true), &group);
    loop.spawn(drain_waiter(&group, &drained));
  });
  on_loop(loop, [&] { first.set(); });
  on_loop(loop, [] {});  // the first member has ended by now
  EXPECT_EQ(drained_future.wait_for(0ms), std::future_status::timeout);

  // The last member leaves the group even though it throws.
  on_loop(loop, [&] { second.set(); });
  ASSERT_EQ(drained_future.wait_for(2s), std::future_status::ready);
  EXPECT_EQ(loop.tasks_failed(), 1u);
  loop.stop();
}

TEST(EventLoopTest, TaskGroupDrainCompletesAtOnceWhenEmpty) {
  EventLoop loop;
  loop.start();
  TaskGroup group;
  EXPECT_TRUE(group.await_ready());
  std::promise<void> drained;
  loop.spawn(drain_waiter(&group, &drained));
  EXPECT_EQ(drained.get_future().wait_for(2s), std::future_status::ready);
  loop.stop();
}

TEST(EventLoopTest, StopIsIdempotentAndLoopIsSingleUse) {
  EventLoop loop;
  loop.start();
  loop.stop();
  loop.stop();
  loop.start();  // no-op: stopped loops do not restart
  EXPECT_FALSE(loop.running());
}

TEST(EventLoopTest, ThrowingTaskIsCountedNotFatal) {
  EventLoop loop;
  loop.start();
  loop.spawn([]() -> sim::Task {
    co_await std::suspend_never{};
    throw std::runtime_error{"boom"};
  }());
  std::promise<void> flushed;
  loop.spawn(flush_task(&flushed));
  flushed.get_future().get();
  EXPECT_EQ(loop.tasks_failed(), 1u);
  loop.stop();
}

}  // namespace
}  // namespace omig::net
