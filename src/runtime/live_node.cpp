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
  std::lock_guard lock{mutex_};
  OMIG_REQUIRE(!up_, "preload before the node comes up");
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

PushStatus LiveNode::serve(Message message) {
  return std::visit(
      [this](auto& envelope) {
        auto reply = serve(envelope.body);
        if (!reply.has_value()) return PushStatus::Closed;
        envelope.reply.set_value(std::move(*reply));
        return PushStatus::Ok;
      },
      message);
}

std::optional<transport::Frame> LiveNode::serve_frame(
    transport::Frame&& request) {
  const std::uint64_t corr = request.corr;
  return std::visit(
      [&](auto& body) -> std::optional<transport::Frame> {
        using T = std::decay_t<decltype(body)>;
        if constexpr (transport::Request<T>) {
          auto reply = serve(body);
          if (!reply.has_value()) return std::nullopt;
          return transport::Frame{corr,
                                  transport::WireReply<T>{std::move(*reply)}};
        } else {
          return std::nullopt;
        }
      },
      request.payload);
}

void LiveNode::open() {
  std::lock_guard lock{lifecycle_mutex_};
  {
    std::lock_guard state{mutex_};
    up_ = true;
  }
  if (drains_mailbox_ && !drain_.joinable()) {
    mailbox_.reopen();
    drain_ = std::thread{[this] {
      // Ends once the mailbox is closed and drained (stop, or a crash).
      while (auto msg = mailbox_.pop()) (void)serve(std::move(*msg));
    }};
  }
}

void LiveNode::start() {
  {
    std::lock_guard lock{lifecycle_mutex_};
    drains_mailbox_ = true;
  }
  open();
}

void LiveNode::stop() {
  std::lock_guard lock{lifecycle_mutex_};
  // Close first so no message can slip in behind the shutdown: the drain
  // serves what is already queued, then pop() signals exhaustion.
  mailbox_.close();
  if (drain_.joinable()) drain_.join();
  std::lock_guard state{mutex_};
  up_ = false;
}

void LiveNode::crash() {
  std::lock_guard lock{lifecycle_mutex_};
  {
    // Taking the mutex waits for the handler in flight; every later
    // request is rejected, and volatile node state is lost with the
    // process.
    std::lock_guard state{mutex_};
    if (!up_) return;
    up_ = false;
    obs::node_metrics().hosted_objects->sub(
        static_cast<std::int64_t>(hosted_.load()));
    objects_.clear();
    installed_seq_.clear();
    invoke_replies_.clear();
    invoke_order_.clear();
    evicted_states_.clear();
    evict_order_.clear();
    dir_entries_.clear();
    hosted_.store(0);
  }
  // Queued messages die undelivered; their replies break, which is how
  // senders observe the failure.
  mailbox_.close_and_discard();
  if (drain_.joinable()) drain_.join();
}

bool LiveNode::running() const {
  std::lock_guard lock{mutex_};
  return up_;
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
