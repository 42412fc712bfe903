#include "runtime/live_node.hpp"

#include "obs/families.hpp"
#include "runtime/serde.hpp"
#include "util/assert.hpp"

namespace omig::runtime {

namespace {
/// Bound on the seq-keyed reply caches. Retransmissions arrive within a
/// few retry rounds of the original, so a few thousand entries is a
/// comfortable at-most-once window without unbounded growth.
constexpr std::size_t kReplyCacheSize = 4096;
}  // namespace

LiveNode::LiveNode(
    std::size_t id,
    const std::unordered_map<std::string, ObjectFactory>* factories)
    : id_{id}, factories_{factories} {
  OMIG_REQUIRE(factories != nullptr, "node needs a factory registry");
}

LiveNode::~LiveNode() { stop(); }

std::size_t LiveNode::preload_from_store() {
  OMIG_REQUIRE(store_ != nullptr, "attach a store before preloading");
  std::lock_guard lock{lifecycle_mutex_};
  OMIG_REQUIRE(!thread_.joinable(), "preload before start()");
  std::size_t restored = 0;
  for (const auto& [name, obj] : store_->view()) {
    if (obj.state.empty()) continue;  // location-only record
    const auto state = decode(obj.state);
    if (!state.has_value()) continue;  // unreadable checkpoint: skip
    auto fit = factories_->find(state->type);
    if (fit == factories_->end()) continue;
    objects_[name] = fit->second(name, *state);
    ++restored;
  }
  hosted_.store(restored);
  obs::node_metrics().hosted_objects->add(static_cast<std::int64_t>(restored));
  return restored;
}

void LiveNode::start() {
  std::lock_guard lock{lifecycle_mutex_};
  if (thread_.joinable()) return;  // already running: idempotent
  if (mailbox_.closed()) mailbox_.reopen();
  thread_ = std::thread{[this] { run(); }};
}

void LiveNode::stop() {
  std::lock_guard lock{lifecycle_mutex_};
  if (!thread_.joinable()) return;  // already stopped: idempotent
  // Close first so no message can slip in behind the shutdown: the loop
  // drains what is already queued, then pop() signals exhaustion.
  mailbox_.close();
  thread_.join();
}

void LiveNode::crash() {
  std::lock_guard lock{lifecycle_mutex_};
  if (!thread_.joinable()) return;
  // Queued messages die undelivered; their promises break, which is how
  // senders observe the failure.
  mailbox_.close_and_discard();
  thread_.join();
  obs::node_metrics().hosted_objects->sub(
      static_cast<std::int64_t>(hosted_.load()));
  // Volatile node state is lost with the process.
  objects_.clear();
  installed_seq_.clear();
  invoke_replies_.clear();
  invoke_order_.clear();
  evicted_states_.clear();
  evict_order_.clear();
  dir_entries_.clear();
  hosted_.store(0);
  dir_entry_count_.store(0);
}

void LiveNode::restart() {
  std::lock_guard lock{lifecycle_mutex_};
  if (thread_.joinable()) return;  // still running: nothing to do
  mailbox_.reopen();
  thread_ = std::thread{[this] { run(); }};
}

bool LiveNode::running() const {
  std::lock_guard lock{lifecycle_mutex_};
  return thread_.joinable() && !mailbox_.closed();
}

void LiveNode::run() {
  // Ends once the mailbox is closed and drained (stop, or a shutdown).
  while (auto msg = mailbox_.pop()) {
    processed_.fetch_add(1, std::memory_order_relaxed);
    std::visit(
        [this](auto& envelope) {
          envelope.reply.set_value(handle(envelope.body));
        },
        *msg);
  }
}

template <class V>
void LiveNode::remember(std::unordered_map<std::uint64_t, V>& cache,
                        std::deque<std::uint64_t>& order, std::uint64_t seq,
                        V value) {
  if (cache.emplace(seq, std::move(value)).second) {
    order.push_back(seq);
    if (order.size() > kReplyCacheSize) {
      cache.erase(order.front());
      order.pop_front();
    }
  }
}

InvokeResult LiveNode::handle(const transport::WireInvoke& msg) {
  obs::node_metrics().invokes->inc();
  if (msg.seq != 0) {
    auto cached = invoke_replies_.find(msg.seq);
    if (cached != invoke_replies_.end()) {
      // Retransmission of a request we already executed: answer from the
      // cache, never run the method twice.
      deduped_.fetch_add(1, std::memory_order_relaxed);
      obs::node_metrics().dedup_hits->inc();
      return cached->second;
    }
  }
  InvokeResult result;
  auto it = objects_.find(msg.object);
  if (it == objects_.end()) {
    result = InvokeResult{false, "object not resident: " + msg.object};
  } else {
    result = it->second->call(msg.method, msg.argument);
  }
  if (msg.seq != 0) {
    remember(invoke_replies_, invoke_order_, msg.seq, result);
  }
  return result;
}

bool LiveNode::handle(transport::WireInstall& msg) {
  obs::node_metrics().installs->inc();
  if (msg.seq != 0) {
    auto seen = installed_seq_.find(msg.name);
    if (seen != installed_seq_.end() && seen->second == msg.seq) {
      // Duplicate of an install we already applied: just acknowledge.
      deduped_.fetch_add(1, std::memory_order_relaxed);
      obs::node_metrics().dedup_hits->inc();
      return true;
    }
  }
  auto fit = factories_->find(msg.state.type);
  if (fit == factories_->end()) return false;
  if (store_ != nullptr) {
    // WAL first, ack second: once the sender sees `true`, this install
    // survives SIGKILL. A dead store (injected power loss) refuses the
    // install outright — the sender retries against the relaunch.
    const auto outcome =
        store_->checkpoint(msg.name, id_, 0, encode(msg.state));
    if (!outcome.applied) return false;
  }
  const bool added =
      objects_.insert_or_assign(msg.name,
                                fit->second(msg.name, std::move(msg.state)))
          .second;
  if (msg.seq != 0) installed_seq_[msg.name] = msg.seq;
  if (added) {
    // A replacing install (a put-back onto a source that still holds the
    // object) leaves the count as it is.
    hosted_.fetch_add(1, std::memory_order_relaxed);
    obs::node_metrics().hosted_objects->add(1);
  }
  return true;
}

transport::DirEntry LiveNode::handle(const transport::WireDirLookup& msg) {
  // Read-only and idempotent: no dedup needed. Answers from whatever this
  // node serves — its shard slice or a forwarding hint left behind by a
  // departed object; both live in the same table.
  auto it = dir_entries_.find(msg.name);
  if (it == dir_entries_.end()) return transport::DirEntry{false, 0};
  return transport::DirEntry{true, it->second};
}

bool LiveNode::handle(const transport::WireDirUpdate& msg) {
  // Idempotent: the update carries the absolute new value, so a
  // retransmission converges to the same state.
  dir_entries_[msg.name] = msg.node;
  dir_entry_count_.store(dir_entries_.size(), std::memory_order_relaxed);
  return true;
}

ObjectState LiveNode::handle(const transport::WireEvict& msg) {
  obs::node_metrics().evicts->inc();
  if (msg.seq != 0) {
    auto cached = evicted_states_.find(msg.seq);
    if (cached != evicted_states_.end()) {
      // Duplicate evict: the object is already gone — hand out the state
      // captured by the first delivery.
      deduped_.fetch_add(1, std::memory_order_relaxed);
      obs::node_metrics().dedup_hits->inc();
      return cached->second;
    }
  }
  auto it = objects_.find(msg.name);
  if (it == objects_.end()) return ObjectState{};  // empty type: failure
  ObjectState state = it->second->linearize();
  objects_.erase(it);
  hosted_.fetch_sub(1, std::memory_order_relaxed);
  obs::node_metrics().hosted_objects->sub(1);
  if (store_ != nullptr) {
    // Recorded before the state leaves this node: a relaunch must not
    // resurrect an object the coordinator already pulled away (the
    // directory, not this store, is the arbiter of its new home).
    (void)store_->evict(msg.name);
  }
  if (msg.seq != 0) {
    remember(evicted_states_, evict_order_, msg.seq, state);
  }
  return state;
}

}  // namespace omig::runtime
