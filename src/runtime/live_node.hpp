// A live node: one thread, one mailbox, a set of hosted objects.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "runtime/live_object.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "store/store.hpp"

namespace omig::runtime {

/// Executes messages for the objects it hosts. Owned by LiveSystem; the
/// factory registry (shared, immutable after startup) rebuilds migrated
/// objects.
///
/// Lifecycle: start() → [crash() → restart()]* → stop(). start() and
/// stop() are idempotent and safe to call from multiple threads. crash()
/// models a node failure: the event loop dies, queued messages are
/// destroyed undelivered (their promises break) and all hosted objects are
/// lost; restart() brings the node back empty — the system layer
/// reconciles the directory and reinstalls objects from checkpoints.
class LiveNode {
public:
  LiveNode(std::size_t id,
           const std::unordered_map<std::string, ObjectFactory>* factories);
  ~LiveNode();

  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] Mailbox<Message>& mailbox() { return mailbox_; }

  /// Attaches a durable store (docs/durability.md): every install appends
  /// a fsynced checkpoint record before it is acknowledged, every evict an
  /// evict record — so an acked install survives SIGKILL. Non-owning; must
  /// outlive the node. Call before start().
  void set_store(store::DurableStore* store) { store_ = store; }

  /// Rebuilds hosted objects from the attached store's recovered view
  /// (entries recorded for this node with a decodable state). Call after
  /// set_store() and before start() — this is the relaunch path of
  /// omig_node --data-dir. Returns the number of objects restored.
  std::size_t preload_from_store();

  /// Starts the event-loop thread. No-op if already running.
  void start();
  /// Closes the mailbox (pending messages drain) and joins the thread.
  /// Idempotent; safe to call concurrently with the destructor.
  void stop();

  /// Abrupt failure: discards queued messages, joins the thread, drops all
  /// hosted objects and dedup state. No-op if the node is not running.
  void crash();
  /// Restarts a crashed (or stopped) node with an empty object table.
  void restart();

  [[nodiscard]] bool running() const;

  [[nodiscard]] std::uint64_t processed() const { return processed_.load(); }
  [[nodiscard]] std::uint64_t hosted_objects() const {
    return hosted_.load();
  }
  /// Messages answered from the dedup caches instead of being re-executed.
  [[nodiscard]] std::uint64_t deduplicated() const { return deduped_.load(); }
  /// Directory entries (shard-slice records + forwarding hints) this node
  /// currently serves (DirectoryKind::Sharded, docs/directory.md).
  [[nodiscard]] std::uint64_t directory_entries() const {
    return dir_entry_count_.load();
  }

private:
  void run();
  // One handler per request kind: takes the body, returns the reply value.
  InvokeResult handle(const transport::WireInvoke& msg);
  bool handle(transport::WireInstall& msg);
  ObjectState handle(const transport::WireEvict& msg);
  transport::DirEntry handle(const transport::WireDirLookup& msg);
  bool handle(const transport::WireDirUpdate& msg);
  /// Inserts into a seq-keyed cache, evicting the oldest entry beyond the
  /// retention bound (enough to cover any plausible retransmission window).
  template <class V>
  void remember(std::unordered_map<std::uint64_t, V>& cache,
                std::deque<std::uint64_t>& order, std::uint64_t seq, V value);

  std::size_t id_;
  const std::unordered_map<std::string, ObjectFactory>* factories_;
  store::DurableStore* store_ = nullptr;  ///< optional; non-owning
  Mailbox<Message> mailbox_;

  mutable std::mutex lifecycle_mutex_;  ///< guards thread_ start/join
  std::thread thread_;

  // Node-thread-only state (no locking: touched by run() while the thread
  // lives, and by crash()/restart() only after joining it).
  std::unordered_map<std::string, std::unique_ptr<LiveObject>> objects_;
  std::unordered_map<std::string, std::uint64_t> installed_seq_;
  std::unordered_map<std::uint64_t, InvokeResult> invoke_replies_;
  std::deque<std::uint64_t> invoke_order_;
  std::unordered_map<std::uint64_t, ObjectState> evicted_states_;
  std::deque<std::uint64_t> evict_order_;
  /// Sharded-directory state this node serves: its shard slice plus any
  /// forwarding hints left when an object migrated away. Volatile — a
  /// crash loses it, and the coordinator re-seeds the slice on restart.
  std::unordered_map<std::string, std::uint64_t> dir_entries_;

  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> hosted_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> dir_entry_count_{0};
};

}  // namespace omig::runtime
