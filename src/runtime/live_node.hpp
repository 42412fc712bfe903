// A live node: a lock-guarded table of hosted objects with one entry point.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "runtime/live_object.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "runtime/reply_cache.hpp"
#include "store/store.hpp"

namespace omig::runtime {

/// Executes requests for the objects it hosts. Owned by LiveSystem; the
/// factory registry (shared, immutable after startup) rebuilds migrated
/// objects.
///
/// Execution model: serve() runs a request's handler on the calling
/// thread, under the node's mutex, and answers it — a local in-process
/// invocation is a function call on the object's node, and a socket
/// request is answered on the event-loop thread that read it. Handlers
/// never call back into the system layer, so the mutex is the innermost
/// lock of the runtime.
///
/// Lifecycle: a node is down until open() or start() brings it up;
/// [crash() → restart()]* → stop() follow. A node that is down rejects
/// every request (PushStatus::Closed, unanswered). crash() models a
/// node failure: it waits for the handler in flight, then every hosted
/// object and the dedup and directory state are lost; restart() brings
/// the node back empty — the system layer reconciles the directory and
/// reinstalls objects from checkpoints. Every transition is idempotent
/// and safe to call from several threads.
///
/// The mailbox is an adaptor for standalone users (tests, benchmark
/// probes) that push enveloped requests from other threads: start()
/// runs a thread that drains it into serve(). Its envelopes must defer
/// their answers (runtime::envelop does): an inline reply target would
/// outlive the send that made it. LiveSystem never uses it.
class LiveNode {
public:
  LiveNode(std::size_t id,
           const std::unordered_map<std::string, ObjectFactory>* factories);
  ~LiveNode();

  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  [[nodiscard]] Mailbox<Message>& mailbox() { return mailbox_; }

  /// Attaches a durable store (docs/durability.md): every install appends
  /// a fsynced checkpoint record before it is acknowledged, every evict an
  /// evict record — so an acked install survives SIGKILL. Non-owning; must
  /// outlive the node. Call before the node comes up.
  void set_store(store::DurableStore* store) { store_ = store; }

  /// Rebuilds hosted objects from the attached store's recovered view
  /// (entries recorded for this node with a decodable state). Call after
  /// set_store() and before the node comes up — this is the relaunch path
  /// of omig_node --data-dir. Returns the number of objects restored.
  std::size_t preload_from_store();

  /// The entry point: runs the handler for `body` on the calling thread
  /// and returns its reply, or nullopt when the node is down.
  template <transport::Request Req>
  std::optional<typename Req::Reply> serve(Req& body) {
    std::lock_guard lock{mutex_};
    if (!up_) return std::nullopt;
    processed_.fetch_add(1, std::memory_order_relaxed);
    return handle(body);
  }
  /// serve() of an enveloped request, answering it. A node that is down
  /// rejects it: the envelope is destroyed unanswered.
  PushStatus serve(Message message);
  /// serve() of a request frame: the reply frame, or nullopt when there is
  /// nothing to send back — the node is down, or the frame is no request
  /// (a Shutdown, a stray reply). The sender's loss signal is then the
  /// connection reset.
  std::optional<transport::Frame> serve_frame(transport::Frame&& request);

  /// Brings a down node up for serve() calls — with an empty table after
  /// a crash. Starts no thread, but brings back the drain thread if
  /// start() ran it. No-op if up.
  void open();
  /// open(), plus the mailbox drain thread. Idempotent.
  void start();
  /// Takes the node down: the drain thread (if any) serves what is queued
  /// and ends, then serve() rejects. Hosted objects are kept. Idempotent.
  void stop();

  /// Abrupt failure: waits for the handler in flight, takes the node down,
  /// discards queued mailbox messages and drops all hosted objects, dedup
  /// and directory state. No-op if the node is down.
  void crash();
  /// open() after a crash (or a stop).
  void restart() { open(); }

  /// True while the node is up.
  [[nodiscard]] bool running() const;

  [[nodiscard]] std::uint64_t processed() const { return processed_.load(); }
  [[nodiscard]] std::uint64_t hosted_objects() const {
    return hosted_.load();
  }
  /// Messages answered from the dedup caches instead of being re-executed.
  [[nodiscard]] std::uint64_t deduplicated() const { return deduped_.load(); }

private:
  // One handler per request kind: takes the body, returns the reply value.
  // Called under `mutex_`.
  InvokeResult handle(const transport::WireInvoke& msg);
  bool handle(transport::WireInstall& msg);
  ObjectState handle(const transport::WireEvict& msg);
  transport::DirEntry handle(const transport::WireDirLookup& msg);
  bool handle(const transport::WireDirUpdate& msg);

  std::size_t id_;
  const std::unordered_map<std::string, ObjectFactory>* factories_;
  store::DurableStore* store_ = nullptr;  ///< optional; non-owning
  Mailbox<Message> mailbox_;

  // The object table and the up state, guarded by mutex_.
  mutable std::mutex mutex_;
  bool up_ = false;
  std::unordered_map<std::string, std::unique_ptr<LiveObject>> objects_;
  std::unordered_map<std::string, std::uint64_t> installed_seq_;
  /// The at-most-once windows: an invoke's result and an evict's state, by
  /// the seq of the request that produced them.
  ReplyCache<InvokeResult> invoke_replies_;
  ReplyCache<ObjectState> evicted_states_;
  /// Sharded-directory state this node serves: its shard slice plus any
  /// forwarding hints left when an object migrated away. Volatile — a
  /// crash loses it, and the coordinator re-seeds the slice on restart.
  std::unordered_map<std::string, std::uint64_t> dir_entries_;

  // Counters, read from any thread.
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> hosted_{0};
  std::atomic<std::uint64_t> deduped_{0};

  /// Serialises the transitions (and the drain thread's start/join).
  /// Never held by serve(), so a transition may wait for a handler.
  std::mutex lifecycle_mutex_;
  bool drains_mailbox_ = false;  ///< start() ran: open() brings drain_ back
  std::thread drain_;            ///< declared last: it uses the rest
};

}  // namespace omig::runtime
