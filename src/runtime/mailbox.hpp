// Blocking multi-producer mailbox: LiveNode's adaptor for standalone
// users that hand requests to a node's drain thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace omig::runtime {

/// Typed verdict of a mailbox push, and of LiveNode::serve. A rejection
/// used to be observable only through the broken promise inside the
/// destroyed message; the explicit status lets the retry/backoff layer
/// count and log the rejection instead of inferring it.
enum class PushStatus : std::uint8_t {
  Ok = 0,
  Closed,  ///< endpoint closed (node stopped or crashed); message dropped
};

/// Unbounded MPSC queue: any thread pushes, the node's drain thread pops.
///
/// Shutdown semantics: `close()` transitions the mailbox to closed exactly
/// once — the first call wakes every blocked receiver, later calls are
/// no-ops. A closed mailbox rejects every `push()` (PushStatus::Closed;
/// the message is destroyed, which also breaks any promise it carries)
/// while pending messages are still delivered, so a graceful stop drains
/// the queue. `close_and_discard()` models a crash: pending messages are
/// destroyed undelivered. `reopen()` rearms a closed, consumer-less
/// mailbox for a node restart.
template <class T>
class Mailbox {
public:
  /// Enqueues a message. PushStatus::Closed means the mailbox rejected it
  /// (the message is dropped).
  PushStatus push(T value) {
    {
      std::lock_guard lock{mutex_};
      if (closed_) return PushStatus::Closed;
      queue_.push_back(std::move(value));
    }
    cv_.notify_one();
    return PushStatus::Ok;
  }

  /// Blocks until a message is available or the mailbox is closed and
  /// drained; nullopt signals shutdown.
  std::optional<T> pop() {
    std::unique_lock lock{mutex_};
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    T value = std::move(queue_.front());
    queue_.pop_front();
    return value;
  }

  /// Closes the mailbox; pending messages are still delivered. Idempotent:
  /// only the first call notifies the receivers.
  void close() {
    {
      std::lock_guard lock{mutex_};
      if (closed_) return;
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Closes the mailbox and destroys all pending messages (their promises
  /// break, so blocked senders observe the failure). Returns how many
  /// messages were discarded.
  std::size_t close_and_discard() {
    std::deque<T> discarded;
    {
      std::lock_guard lock{mutex_};
      closed_ = true;
      discarded.swap(queue_);
    }
    cv_.notify_all();
    return discarded.size();  // contents destroyed here, outside the lock
  }

  /// Rearms a closed mailbox (node restart). The caller must guarantee no
  /// consumer is blocked in pop() — i.e. the owning thread has exited.
  void reopen() {
    std::lock_guard lock{mutex_};
    closed_ = false;
    queue_.clear();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock{mutex_};
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mutex_};
    return queue_.size();
  }

private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace omig::runtime
