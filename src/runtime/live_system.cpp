#include "runtime/live_system.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>

#include "obs/families.hpp"
#include "runtime/serde.hpp"
#include "trace/log.hpp"
#include "transport/node_server.hpp"
#include "transport/async_tcp_transport.hpp"
#include "util/assert.hpp"

namespace omig::runtime {

using migration::BlockId;
using migration::ObjectId;

namespace {
/// The durable store compacts after this many WAL appends.
constexpr std::uint64_t kStoreCompactEvery = 256;

/// Wall-clock microseconds since `start`, for the latency histograms.
std::uint64_t us_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

std::size_t checked_node_count(const LiveSystem::Options& options) {
  const std::size_t count = options.remote_nodes.empty()
                                ? options.nodes
                                : options.remote_nodes.size();
  OMIG_REQUIRE(count >= 1, "need at least one node");
  return count;
}

migration::ProtocolOptions protocol_options(
    const LiveSystem::Options& options) {
  migration::ProtocolOptions p;
  p.transitivity = options.a_transitive_attachments
                       ? migration::AttachTransitivity::ATransitive
                       : migration::AttachTransitivity::Unrestricted;
  p.lock_lease = static_cast<double>(options.lock_lease.count());
  p.hysteresis_band = options.hysteresis_band;
  p.adaptive_min_weight = options.adaptive_min_weight;
  return p;
}

bool adaptive(migration::PolicyKind kind) {
  return kind == migration::PolicyKind::Adaptive ||
         kind == migration::PolicyKind::AdaptiveLoad;
}

/// True when `r` names an object that one of `transfer`'s relocations
/// names too.
bool overlaps(std::span<const migration::Relocation> transfer,
              const migration::Relocation& r) {
  return std::any_of(r.objects.begin(), r.objects.end(), [&](ObjectId o) {
    return std::any_of(transfer.begin(), transfer.end(), [&](const auto& t) {
      return std::find(t.objects.begin(), t.objects.end(), o) !=
             t.objects.end();
    });
  });
}
}  // namespace

LiveSystem::LiveSystem(Options options)
    : options_{std::move(options)},
      hosted_(checked_node_count(options_), 0),
      protocol_{*this, attachments_, hosted_.size(),
                protocol_options(options_)} {
  OMIG_REQUIRE(options_.max_retries >= 0, "max_retries must be >= 0");
}

LiveSystem::~LiveSystem() { stop(); }

void LiveSystem::register_type(const std::string& type,
                               ObjectFactory factory) {
  OMIG_REQUIRE(!started_, "register types before start()");
  factories_[type] = std::move(factory);
}

void LiveSystem::start() {
  OMIG_REQUIRE(!started_, "system already started");
  const std::size_t count = node_count();
  for (const fault::CrashEvent& crash : options_.fault_plan.crashes) {
    OMIG_REQUIRE(crash.node < count,
                 "crash schedule names a node outside the system");
  }
  if (!remote()) {
    nodes_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      nodes_.push_back(std::make_unique<LiveNode>(i, &factories_));
      nodes_.back()->open();
    }
  }
  node_down_.assign(count, 0);
  if (options_.directory == objsys::DirectoryKind::Sharded) {
    directory_.emplace(static_cast<objsys::DirectoryView&>(*this), count,
                       options_.dir_strategy);
  }
  if (!options_.fault_plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(options_.fault_plan);
  }
  if (adaptive(options_.policy)) {
    locality_ = std::make_unique<objsys::LocalityTracker>(count);
    protocol_.set_locality(locality_.get());
    policy_obs_ =
        obs::policy_metrics(std::string{migration::to_string(options_.policy)});
  }

  // All inter-node traffic goes through one transport; faults inject at
  // this seam, so the same FaultPlan drives every backend identically.
  if (remote() || options_.transport == TransportKind::AsyncTcp) {
    // One proactor loop carries the whole process: every NodeServer's
    // accept/read/write and the client transport's connections.
    net_loop_ = std::make_unique<net::EventLoop>();
    net_loop_->start();
    std::vector<transport::Peer> peers;
    if (remote()) {
      peers = options_.remote_nodes;
    } else {
      // Local TCP: every node gets a loopback frame server that serves it
      // on the loop thread, and traffic takes the full marshalling round
      // trip.
      servers_.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        servers_.push_back(std::make_unique<transport::NodeServer>(
            [node = nodes_[i].get()](transport::Frame frame) {
              return node->serve_frame(std::move(frame));
            },
            net_loop_.get()));
        const std::uint16_t port = servers_.back()->start();
        OMIG_REQUIRE(port != 0, "could not bind a loopback listener");
        peers.push_back(transport::Peer{"127.0.0.1", port});
      }
    }
    transport::AsyncTcpTransport::Options topts;
    topts.peers = std::move(peers);
    topts.loop = net_loop_.get();
    auto tcp = std::make_unique<transport::AsyncTcpTransport>(
        std::move(topts), injector_.get());
    tcp_ = tcp.get();
    transport_ = std::move(tcp);
  } else {
    transport_ = std::make_unique<transport::InProcTransport>(
        [this](std::size_t to) {
          return to < nodes_.size() ? nodes_[to].get() : nullptr;
        },
        injector_.get());
  }

  if (!options_.data_dir.empty()) {
    // The coordinator's own store. Its identity for disk-fault rules is
    // kExternalSender: wildcard rules reach it, rules naming a concrete
    // node target only that node's store.
    store_ = std::make_unique<store::DurableStore>();
    store::DurableStore::OpenOptions sopts;
    sopts.dir = options_.data_dir;
    sopts.compact_every = kStoreCompactEvery;
    sopts.injector = injector_.get();
    sopts.node = kExternalSender;
    OMIG_REQUIRE(store_->open(std::move(sopts)),
                 "could not open the data-dir store");
    recover_from_store();
  }

  started_ = true;
  if (!options_.fault_plan.crashes.empty()) {
    fault_thread_ = std::thread{[this] { run_fault_schedule(); }};
  }
}

void LiveSystem::recover_from_store() {
  // Every reinstall is sent before any is awaited, and the directory then
  // announces those that landed.
  std::vector<Delivery<transport::WireInstall>> installs;
  std::vector<ObjectId> ids;  // per install: the object it revives
  for (const auto& [name, obj] : store_->view()) {
    if (obj.state.empty()) continue;  // location knowledge only, no state
    auto state = decode(obj.state);
    if (!state.has_value() || !factories_.contains(state->type)) continue;
    const auto node = static_cast<std::size_t>(obj.node);
    if (node >= node_count()) continue;
    {
      std::lock_guard lock{mutex_};
      ids.push_back(add_locked(name, node, *state));
      Meta& m = meta(ids.back());
      m.moves = obj.cursor;
      m.durable = true;
    }
    installs.push_back(
        {.from = kExternalSender,
         .to = node,
         .request = {.name = name, .state = std::move(*state)}});
  }
  deliver_all(std::span{installs});
  std::vector<objsys::DirectoryMove> replayed;
  for (std::size_t i = 0; i < installs.size(); ++i) {
    if (!installs[i].reply.value_or(false)) continue;
    replayed_objects_.fetch_add(1, std::memory_order_relaxed);
    const objsys::NodeId node = node_id(installs[i].to);
    replayed.push_back({ids[i], node, node});
  }
  if (directory_) dir_send([&] { return directory_->publish(replayed); });
}

void LiveSystem::stop() {
  std::lock_guard stop_lock{stop_mutex_};
  {
    std::lock_guard lock{fault_mutex_};
    shutting_down_ = true;
  }
  fault_cv_.notify_all();
  if (fault_thread_.joinable()) fault_thread_.join();
  // Servers first: once they are down no loop code touches a node.
  for (auto& server : servers_) server->stop();
  for (auto& node : nodes_) node->stop();
  // Final compaction: fold the WAL into one snapshot so the next start()
  // recovers from a single file. Best-effort — a dead store skips it.
  if (store_ != nullptr) (void)store_->compact();
}

void LiveSystem::run_fault_schedule() {
  using Clock = std::chrono::steady_clock;
  struct Event {
    Clock::time_point at;
    std::size_t node;
    bool up;
  };
  const Clock::time_point t0 = Clock::now();
  auto after = [&](double millis) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>{millis});
  };
  std::vector<Event> schedule;
  for (const fault::CrashEvent& crash : options_.fault_plan.crashes) {
    schedule.push_back({after(crash.at), crash.node, false});
    if (crash.restarts()) {
      schedule.push_back({after(crash.at + crash.restart_after), crash.node,
                          true});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });
  std::unique_lock lock{fault_mutex_};
  for (const Event& event : schedule) {
    if (fault_cv_.wait_until(lock, event.at, [&] { return shutting_down_; })) {
      return;  // system is stopping: abandon the rest of the schedule
    }
    lock.unlock();
    if (event.up) {
      restart_node(event.node);
    } else {
      crash_node(event.node);
    }
    lock.lock();
  }
}

bool LiveSystem::sent_ok(transport::SendStatus status) {
  if (status == transport::SendStatus::Ok) return true;
  // The endpoint rejected the message outright (closed mailbox, oversized
  // frame, unknown peer): no delivery was attempted, so the retry layer
  // can count the rejection instead of inferring it from a broken promise.
  send_rejections_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().send_rejections->inc();
  return false;
}

template <class T>
std::optional<T> LiveSystem::await_reply(std::future<T>& reply) {
  try {
    if (options_.reply_timeout.count() > 0) {
      if (reply.wait_for(options_.reply_timeout) !=
          std::future_status::ready) {
        return std::nullopt;
      }
    }
    return reply.get();
  } catch (const std::future_error&) {
    // The message died unprocessed — dropped by the injector, discarded by
    // a crash, or lost with a connection reset.
    return std::nullopt;
  }
}

template <transport::Request Req>
void LiveSystem::deliver_all(std::span<Delivery<Req>> batch,
                             bool stop_on_rejection) {
  for (Delivery<Req>& d : batch) {
    if (d.rejected) continue;  // the peer is known down: nothing is sent
    d.request.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    d.rejected = !sent_ok(transport_->send(d.from, d.to, d.request, d.first));
  }
  // In-proc replies are ready when send() returns. Over a socket, await
  // the first attempts last-sent first: a NodeServer answers each
  // connection in order, so once the last request to a node is answered
  // the earlier ones are too — the caller blocks about once per
  // destination rather than once per request.
  for (auto d = batch.rbegin(); d != batch.rend(); ++d) {
    if (!d->rejected) d->reply = await_reply(d->first);
  }
  for (Delivery<Req>& d : batch) {
    if (d.reply.has_value() || (d.rejected && stop_on_rejection)) continue;
    for (int attempt = 1; attempt <= options_.max_retries; ++attempt) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      obs::runtime_metrics().retries->inc();
      backoff(attempt);
      if (!sent_ok(transport_->send(d.from, d.to, d.request, d.first))) {
        // The node is down; it may restart within the retry budget.
        if (stop_on_rejection) break;
        continue;
      }
      d.reply = await_reply(d.first);
      if (d.reply.has_value()) break;
    }
  }
}

template <transport::Request Req>
std::optional<typename Req::Reply> LiveSystem::deliver(std::size_t from,
                                                       std::size_t to,
                                                       Req request) {
  Delivery<Req> one{.from = from, .to = to, .request = std::move(request)};
  deliver_all(std::span{&one, 1});
  return std::move(one.reply);
}

template <class F>
void LiveSystem::dir_send(F&& updates) {
  std::vector<Delivery<transport::WireDirUpdate>> batch;
  {
    std::lock_guard lock{mutex_};
    for (const objsys::DirectoryRequest& u : updates()) {
      batch.push_back({.from = kExternalSender,
                       .to = u.target.value(),
                       .request = {.name = meta(u.object).name,
                                   .node = u.node.value()}});
    }
    objsys::count_in_metrics(dir_counted_, directory_->stats());
  }
  deliver_all(std::span{batch});
}

void LiveSystem::backoff(int attempt) {
  if (options_.retry_backoff.count() <= 0) return;
  const int shift = std::min(attempt - 1, 6);
  std::this_thread::sleep_for(options_.retry_backoff * (1 << shift));
}

bool LiveSystem::faults_active() const {
  return injector_ != nullptr ||
         crashes_.load(std::memory_order_relaxed) > 0;
}

double LiveSystem::now() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void LiveSystem::record(trace::EventKind kind, ObjectId object,
                        objsys::NodeId node, BlockId block) {
  if (options_.trace == nullptr) return;
  // Logical time: transport backends interleave wall-clock time
  // differently, but the directory orders protocol events identically.
  options_.trace->record(trace::Event{static_cast<double>(trace_clock_++),
                                      kind, object, node, block});
}

ObjectId LiveSystem::find_locked(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? ObjectId::invalid() : it->second;
}

ObjectId LiveSystem::add_locked(const std::string& name, std::size_t node,
                                ObjectState checkpoint) {
  const ObjectId id{static_cast<ObjectId::value_type>(objects_.size())};
  Meta& m = objects_.emplace_back();
  m.name = name;
  m.node = node;
  m.checkpoint = std::move(checkpoint);
  ids_[name] = id;
  ++hosted_[node];
  return id;
}

migration::AllianceId LiveSystem::alliance_locked(const std::string& name) {
  if (name.empty()) return migration::AllianceId::invalid();
  const auto next = static_cast<migration::AllianceId::value_type>(
      alliances_.size());
  return alliances_.try_emplace(name, next).first->second;
}

bool LiveSystem::create(const std::string& name, ObjectState state,
                        std::size_t node) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  if (!factories_.contains(state.type)) return false;
  ObjectId id;
  {
    std::lock_guard lock{mutex_};
    if (ids_.contains(name)) return false;
    id = add_locked(name, node, state);  // creation-time recovery checkpoint
    record(trace::EventKind::ReplicaCreated, id, node_id(node),
           BlockId::invalid());
  }
  const bool ok = deliver(kExternalSender, node,
                          transport::WireInstall{.name = name, .state = state})
                      .value_or(false);
  if (!ok) {
    // Release the name; the dead entry stays pinned so no cluster that
    // picked it up meanwhile ever tries to move it.
    std::lock_guard lock{mutex_};
    Meta& m = meta(id);
    ids_.erase(name);
    --hosted_[m.node];
    m.node = kGone;
    m.fixed = true;
    return false;
  }
  // Seed the shard owner's slice (and a self-entry at the host, so a
  // forwarding chase arriving here resolves instead of running dry).
  if (directory_) {
    const objsys::DirectoryMove created{id, node_id(node), node_id(node)};
    dir_send([&] { return directory_->publish({&created, 1}); });
  }
  if (store_ != nullptr) {
    // Persist the creation checkpoint; only a fsynced append upgrades the
    // entry to durable (an injected fsync failure leaves it in-memory).
    const auto outcome = store_->checkpoint(name, node, 0, encode(state));
    if (outcome.durable) {
      std::lock_guard lock{mutex_};
      meta(id).durable = true;
    }
  }
  return true;
}

std::optional<std::size_t> LiveSystem::location(
    const std::string& name) const {
  std::lock_guard lock{mutex_};
  const ObjectId id = find_locked(name);
  if (!id.valid()) return std::nullopt;
  return meta(id).node;
}

InvokeResult LiveSystem::invoke_impl(std::optional<std::size_t> from,
                                     const std::string& object,
                                     const std::string& method,
                                     const std::string& argument) {
  OMIG_REQUIRE(started_, "start() the system first");
  const auto wall_start = std::chrono::steady_clock::now();
  // Rounds spent on "object not resident". Fault-free this loops only while
  // a migration races the delivery; under faults a recovering object may
  // stay non-resident for a while, so the loop is bounded then.
  int stale_rounds = 0;
  constexpr int kMaxStaleRounds = 64;
  // A node the previous round found without the object: the sharded
  // directory then drops its cache entry and chases the forwarding hints.
  std::optional<std::size_t> stale;
  // The locality EMA counts logical invocations, so feed it once even if
  // stale rounds retry the delivery.
  bool locality_recorded = false;
  for (;;) {
    std::optional<std::size_t> node;
    {
      std::unique_lock lock{mutex_};
      const ObjectId id = find_locked(object);
      if (!id.valid()) return InvokeResult{false, "unknown object: " + object};
      // "The call is blocked until the object is operational once again."
      const Meta& m = meta(id);
      transit_cv_.wait(lock, [&] { return !m.in_transit; });
      // A transfer lost the object, and the node the directory names has
      // just answered that it holds no copy: revive it there. A copy that
      // is still resident is never overwritten.
      if (m.lost && stale == m.node) reinstall_lost(lock, id);
      node = m.node;
      if (!locality_recorded && locality_ != nullptr && from.has_value() &&
          *from < node_count()) {
        locality_->record(id, node_id(*from));
        policy_obs_->ema_updates->inc();
        locality_recorded = true;
      }
      if (directory_) node = locate_locked(lock, from, id, stale);
    }
    stale.reset();
    if (!node.has_value()) {
      // Unresolved: the host is down. Never send to it; back off within
      // the bounded rounds.
      if (++stale_rounds > kMaxStaleRounds) {
        return InvokeResult{false, "no live host: " + object};
      }
      backoff(1);
      continue;
    }
    invocations_.fetch_add(1, std::memory_order_relaxed);
    const bool remote_call = !from.has_value() || *from != *node;
    (remote_call ? obs::runtime_metrics().invocations_remote
                 : obs::runtime_metrics().invocations_local)
        ->inc();
    if (remote_call) {
      remote_.fetch_add(1, std::memory_order_relaxed);
      if (options_.remote_latency.count() > 0) {
        std::this_thread::sleep_for(options_.remote_latency);
      }
    }
    const std::optional<InvokeResult> result =
        deliver(from.value_or(kExternalSender), *node,
                transport::WireInvoke{
                    .object = object, .method = method, .argument = argument});
    if (!result.has_value()) {
      return InvokeResult{
          false, "node unreachable: " + std::to_string(*node) + " (" + object +
                     ")"};
    }
    if (remote_call && options_.remote_latency.count() > 0) {
      std::this_thread::sleep_for(options_.remote_latency);  // result message
    }
    // A migration can race the delivery: the directory said `node`, but the
    // object was evicted before our message arrived. Retry — this mirrors
    // real systems forwarding calls to the new location. After a crash the
    // object may be awaiting reinstallation, so give recovery time and
    // give up eventually instead of spinning forever.
    if (!result->ok && result->value.starts_with("object not resident")) {
      stale = *node;
      if (faults_active()) {
        if (++stale_rounds > kMaxStaleRounds) return *result;
        backoff(1);
      }
      continue;
    }
    (remote_call ? obs::runtime_metrics().invoke_remote_us
                 : obs::runtime_metrics().invoke_local_us)
        ->record(us_since(wall_start));
    return *result;
  }
}

void LiveSystem::reinstall_lost(std::unique_lock<std::mutex>& lock,
                                ObjectId id) {
  Meta& m = meta(id);
  m.in_transit = true;
  const std::size_t node = m.node;
  transport::WireInstall install{.name = m.name, .state = m.checkpoint};
  lock.unlock();
  const bool ok =
      deliver(kExternalSender, node, std::move(install)).value_or(false);
  lock.lock();
  m.in_transit = false;
  m.lost = !ok;  // still lost: the next invoke tries again
  if (ok) {
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    obs::runtime_metrics().recoveries->inc();
  }
  transit_cv_.notify_all();
}

void LiveSystem::fix(const std::string& name) {
  std::lock_guard lock{mutex_};
  const ObjectId id = find_locked(name);
  OMIG_REQUIRE(id.valid(), "fix: unknown object");
  meta(id).fixed = true;
  record(trace::EventKind::Fix, id, objsys::NodeId::invalid(),
         BlockId::invalid());
}

void LiveSystem::unfix(const std::string& name) {
  std::lock_guard lock{mutex_};
  const ObjectId id = find_locked(name);
  OMIG_REQUIRE(id.valid(), "unfix: unknown object");
  meta(id).fixed = false;
  record(trace::EventKind::Unfix, id, objsys::NodeId::invalid(),
         BlockId::invalid());
}

bool LiveSystem::is_fixed(const std::string& name) const {
  std::lock_guard lock{mutex_};
  const ObjectId id = find_locked(name);
  OMIG_REQUIRE(id.valid(), "is_fixed: unknown object");
  return meta(id).fixed;
}

bool LiveSystem::attach(const std::string& a, const std::string& b,
                        const std::string& alliance) {
  std::lock_guard lock{mutex_};
  const ObjectId ia = find_locked(a);
  const ObjectId ib = find_locked(b);
  if (!ia.valid() || !ib.valid()) return false;
  return attachments_.attach(ia, ib, alliance_locked(alliance));
}

bool LiveSystem::detach(const std::string& a, const std::string& b) {
  std::lock_guard lock{mutex_};
  const ObjectId ia = find_locked(a);
  const ObjectId ib = find_locked(b);
  if (!ia.valid() || !ib.valid()) return false;
  return attachments_.detach(ia, ib);
}

std::vector<LiveSystem::Leg> LiveSystem::claim_locked(
    std::unique_lock<std::mutex>& lock,
    std::span<const migration::Relocation> relocations,
    migration::MoveBlock* blk) {
  // Wait for the whole transfer at once, as the simulator's transfer does:
  // claiming members one by one while waiting on the rest could deadlock
  // against another claimer doing the same in the other order.
  transit_cv_.wait(lock, [&] {
    return std::none_of(
        relocations.begin(), relocations.end(),
        [&](const migration::Relocation& r) {
          return std::any_of(r.objects.begin(), r.objects.end(),
                             [&](ObjectId o) { return meta(o).in_transit; });
        });
  });
  std::vector<Leg> claimed;
  for (const migration::Relocation& r : relocations) {
    const std::size_t dest = r.dest.value();
    for (const ObjectId o : r.objects) {
      Meta& m = meta(o);
      if (m.fixed || m.node == dest) continue;
      m.in_transit = true;
      record(trace::EventKind::MigrationStart, o, r.dest,
             blk != nullptr ? blk->id : BlockId::invalid());
      if (blk != nullptr) {
        blk->moved.push_back(o);
        blk->origins_of_moved.push_back(node_id(m.node));
      }
      claimed.push_back({o, dest});
    }
  }
  return claimed;
}

void LiveSystem::relocate(const std::vector<Leg>& legs, BlockId block) {
  if (legs.empty()) return;
  const auto wall_start = std::chrono::steady_clock::now();

  // Phase 1: pull every member's state off its source; each evict travels
  // dest -> src. A source known to be down gets none, and one that dies
  // meanwhile ends its member's attempts early: recovery takes over below,
  // and neither holds up another member.
  std::vector<Delivery<transport::WireEvict>> evicts;
  evicts.reserve(legs.size());
  {
    std::lock_guard lock{mutex_};
    for (const Leg& leg : legs) {
      const Meta& m = meta(leg.id);
      evicts.push_back({.from = leg.dest,
                        .to = m.node,
                        .request = {.name = m.name},
                        .rejected = node_down_[m.node] != 0});
    }
  }
  deliver_all(std::span{evicts}, /*stop_on_rejection=*/true);
  if (options_.remote_latency.count() > 0) {
    // The members travel in parallel, so the transfer costs the largest
    // member cost, not their sum.
    std::this_thread::sleep_for(options_.remote_latency);
  }

  // Phase 2: install every member at its destination. The install carries
  // the state by value; the AsyncTcp backend linearises it for the wire
  // (Section 3.1), so a socket destination rebuilds the object from bytes,
  // never from shared memory.
  std::vector<Delivery<transport::WireInstall>> installs;
  installs.reserve(legs.size());
  {
    std::lock_guard lock{mutex_};
    for (std::size_t i = 0; i < legs.size(); ++i) {
      Meta& m = meta(legs[i].id);
      std::optional<ObjectState>& state = evicts[i].reply;
      if (!state.has_value() || state->type.empty()) {
        // The source is down, unreachable, or lost the object with a
        // crash: recover the last checkpoint. Degraded mode — updates
        // since the checkpoint are gone, but the object itself survives
        // (docs/fault_model.md).
        state = m.checkpoint;
        recoveries_.fetch_add(1, std::memory_order_relaxed);
        obs::runtime_metrics().recoveries->inc();
      } else {
        // The state now in flight becomes the object's recovery checkpoint.
        m.checkpoint = *state;
      }
      OMIG_ASSERT(!state->type.empty());
      installs.push_back(
          {.from = evicts[i].to,
           .to = legs[i].dest,
           .request = {.name = m.name, .state = std::move(*state)}});
    }
  }
  deliver_all(std::span{installs});
  const auto landed = [&](std::size_t i) {
    return installs[i].reply.value_or(false);
  };
  // A member whose destination died mid-move goes back on its own source.
  // If the put-back fails too, the member is lost: an invoke that finds
  // its source without it, or a restart of its source, reinstalls it there
  // from the checkpoint, and the next transfer that claims it recovers the
  // checkpoint as for any empty evict.
  std::vector<Delivery<transport::WireInstall>> put_backs;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (landed(i)) continue;
    put_backs.push_back({.from = installs[i].to,
                         .to = installs[i].from,
                         .request = installs[i].request});
  }
  deliver_all(std::span{put_backs});

  // The transfer has settled: each member is at its destination, back at
  // its source, or lost there.
  std::vector<std::uint64_t> cursors(legs.size(), 0);
  {
    std::lock_guard lock{mutex_};
    auto put_back = put_backs.begin();
    for (std::size_t i = 0; i < legs.size(); ++i) {
      Meta& m = meta(legs[i].id);
      const std::size_t src = evicts[i].to;
      m.node = landed(i) ? legs[i].dest : src;
      m.in_transit = false;
      if (landed(i)) {
        m.lost = false;
        cursors[i] = ++m.moves;
        --hosted_[src];
        ++hosted_[m.node];
      } else {
        m.lost = !(put_back++)->reply.value_or(false);
      }
      record(trace::EventKind::MigrationEnd, legs[i].id, node_id(m.node),
             block);
    }
  }
  transit_cv_.notify_all();  // calls blocked on the members may proceed

  // Phase 3: every moved member's directory updates.
  if (directory_) {
    std::vector<objsys::DirectoryMove> moves;
    for (std::size_t i = 0; i < legs.size(); ++i) {
      if (landed(i)) {
        moves.push_back(
            {legs[i].id, node_id(evicts[i].to), node_id(legs[i].dest)});
      }
    }
    dir_send([&] { return directory_->publish(moves); });
  }
  for (std::size_t i = 0; i < legs.size(); ++i) {
    if (!landed(i)) continue;
    if (store_ != nullptr) {
      // Log the location change, then checkpoint the in-flight state under
      // the new home — both fsynced before relocate() acks the migration,
      // so no acked migration is ever lost (docs/durability.md).
      const transport::WireInstall& install = installs[i].request;
      (void)store_->migration(install.name, evicts[i].to, legs[i].dest);
      const auto outcome = store_->checkpoint(
          install.name, legs[i].dest, cursors[i], encode(install.state));
      std::lock_guard lock{mutex_};
      meta(legs[i].id).durable = outcome.durable;
    }
    migrations_.fetch_add(1, std::memory_order_relaxed);
    obs::runtime_metrics().migrations->inc();
    obs::runtime_metrics().migration_us->record(us_since(wall_start));
  }
}

bool LiveSystem::migrate(const std::string& object, std::size_t dest,
                         const std::string& alliance) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(dest < node_count(), "node index out of range");
  std::vector<Leg> claimed;
  {
    std::unique_lock lock{mutex_};
    const ObjectId id = find_locked(object);
    if (!id.valid()) return false;
    const migration::Relocation whole{
        node_id(dest), protocol_.cluster(id, alliance_locked(alliance))};
    claimed = claim_locked(lock, {&whole, 1}, nullptr);
  }
  relocate(claimed, BlockId::invalid());
  return true;
}

LiveSystem::MoveToken LiveSystem::open_block(const std::string& object,
                                             std::size_t dest,
                                             const std::string& alliance,
                                             bool visit) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(dest < node_count(), "node index out of range");
  MoveToken token;
  std::vector<Leg> claimed;
  {
    std::unique_lock lock{mutex_};
    const ObjectId id = find_locked(object);
    if (!id.valid()) return token;  // no block, not granted
    token = protocol_.new_block(node_id(dest), id, alliance_locked(alliance),
                                visit);
    record(trace::EventKind::BlockBegin, id, node_id(dest), token.id);
    const std::uint64_t expiries = protocol_.lease_expiries();
    const migration::PolicyCounters before = protocol_.counters();
    const migration::Relocation decided =
        protocol_.decide_move(options_.policy, token);
    mirror_decision_locked(token, expiries, before);
    if (!decided.dest.valid()) return token;
    claimed = claim_locked(lock, {&decided, 1}, &token);
  }
  relocate(claimed, token.id);
  return token;
}

void LiveSystem::mirror_decision_locked(
    const MoveToken& token, std::uint64_t expiries,
    const migration::PolicyCounters& before) {
  obs::RuntimeMetrics& metrics = obs::runtime_metrics();
  if (!token.granted) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    metrics.refused_moves->inc();
  }
  metrics.lease_expiries->inc(protocol_.lease_expiries() - expiries);
  metrics.lease_acquisitions->inc(token.locked.size());
  if (store_ != nullptr) {
    // Audit records, unsynced: lease grants ride on the next synced append
    // (recovery never restores leases — they expire).
    for (const ObjectId o : token.locked) {
      (void)store_->lease(meta(o).name, token.id.value());
    }
  }
  if (policy_obs_.has_value()) {
    const migration::PolicyCounters& after = protocol_.counters();
    policy_obs_->migrations_triggered->inc(after.migrations_triggered -
                                           before.migrations_triggered);
    policy_obs_->suppressed_hysteresis->inc(after.suppressed_hysteresis -
                                            before.suppressed_hysteresis);
    policy_obs_->suppressed_load->inc(after.suppressed_load -
                                      before.suppressed_load);
    policy_obs_->pingpong_reversals->inc(after.pingpong_reversals -
                                         before.pingpong_reversals);
  }
}

void LiveSystem::end(MoveToken& token) {
  if (!token.id.valid()) return;
  std::vector<migration::Relocation> after;
  {
    std::lock_guard lock{mutex_};
    record(trace::EventKind::BlockEnd, token.target, token.origin, token.id);
    after = protocol_.decide_end(options_.policy, token);
  }
  token.id = BlockId::invalid();
  // The end-request's migrations run as transfers, and end() returns once
  // they have settled. decide_end lists a visit's return trips first, one
  // per origin; they name disjoint objects, so they go home as one
  // transfer. A relocation naming an object already in the transfer —
  // compare-reinstantiate's may name a returning one — starts the next.
  for (auto first = after.begin(); first != after.end();) {
    auto last = std::next(first);
    while (last != after.end() && !overlaps({first, last}, *last)) ++last;
    std::vector<Leg> claimed;
    {
      std::unique_lock lock{mutex_};
      claimed = claim_locked(lock, {first, last}, nullptr);
    }
    relocate(claimed, BlockId::invalid());
    first = last;
  }
}

void LiveSystem::crash_node(std::size_t node) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  {
    std::lock_guard lock{mutex_};
    node_down_[node] = 1;
    // Its lookup cache dies with it, as its table does inside crash().
    if (directory_) directory_->crash(node_id(node));
  }
  if (!remote()) {
    nodes_[node]->crash();
    // Under TCP the node's listener dies with it: peers observe connection
    // resets, and their pending replies break immediately.
    if (node < servers_.size()) servers_[node]->stop();
  }
  transport_->on_node_crash(node);
  crashes_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().crashes->inc();
}

void LiveSystem::restart_node(std::size_t node) {
  OMIG_REQUIRE(started_, "start() the system first");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  if (!remote()) {
    nodes_[node]->restart();
    if (node < servers_.size()) {
      // A restarted process would come up on a fresh port; the in-process
      // stand-in does the same, and the transport is re-pointed at it.
      const std::uint16_t port = servers_[node]->start();
      OMIG_REQUIRE(port != 0, "could not rebind the node's listener");
      tcp_->set_peer(node, transport::Peer{"127.0.0.1", port});
    }
  }
  // Reconcile the directory with the freshly-empty node: reinstall every
  // object placed there from its checkpoint, all sent before any is
  // awaited. In-transit objects are skipped — their migration is in
  // progress and settles them itself.
  std::vector<Delivery<transport::WireInstall>> installs;
  std::vector<Meta*> reinstalled;  // per install: the object it revives
  {
    std::lock_guard lock{mutex_};
    node_down_[node] = 0;
    for (Meta& m : objects_) {
      if (m.node == node && !m.in_transit) {
        installs.push_back(
            {.from = kExternalSender,
             .to = node,
             .request = {.name = m.name, .state = m.checkpoint}});
        reinstalled.push_back(&m);
        // This reconciliation revives it; a transfer that loses it
        // meanwhile marks it again.
        m.lost = false;
      }
    }
  }
  deliver_all(std::span{installs});
  {
    std::lock_guard lock{mutex_};
    for (std::size_t i = 0; i < installs.size(); ++i) {
      Meta& m = *reinstalled[i];
      if (!installs[i].reply.value_or(false)) {
        // Not revived: lost, unless a transfer moved it away or is moving
        // it.
        if (m.node == node && !m.in_transit) m.lost = true;
        continue;
      }
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      obs::runtime_metrics().recoveries->inc();
      if (m.durable) {
        // The checkpoint that revived this object was disk-backed — the
        // distinction durable_recoveries() reports.
        durable_recoveries_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // The fresh node serves an empty directory table; rebuild its slice (and
  // the self-entries for objects reinstalled here) from the central map.
  if (directory_) dir_send([&] { return directory_->reseed(node_id(node)); });
  restarts_.fetch_add(1, std::memory_order_relaxed);
  obs::runtime_metrics().restarts->inc();
}

std::size_t LiveSystem::directory_shard_owner(const std::string& name) const {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : name) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % node_count());
}

std::optional<std::size_t> LiveSystem::locate_locked(
    std::unique_lock<std::mutex>& lock, std::optional<std::size_t> from,
    ObjectId id, std::optional<std::size_t> stale) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t origin = from.value_or(kExternalSender);
  objsys::DirectoryLookup lookup = directory_->lookup(
      node_id(origin), id, node_id(stale.value_or(kExternalSender)));
  while (!lookup.done()) {
    const std::size_t target = lookup.request().target.value();
    transport::WireDirLookup ask{.name = meta(id).name};
    lock.unlock();
    const auto entry = deliver(origin, target, std::move(ask));
    lock.lock();
    using Kind = objsys::DirectoryAnswer::Kind;
    directory_->answer(
        lookup, !entry ? objsys::DirectoryAnswer{}  // no reply: unreachable
                : entry->found
                    ? objsys::DirectoryAnswer{Kind::Entry, node_id(entry->node)}
                    : objsys::DirectoryAnswer{Kind::NoEntry});
  }
  objsys::count_in_metrics(dir_counted_, directory_->stats());
  obs::dir_metrics().lookup_us->record(us_since(wall_start));
  if (!lookup.host().valid()) return std::nullopt;
  return lookup.host().value();
}

objsys::DirectoryStats LiveSystem::dir_stats() const {
  std::lock_guard lock{mutex_};
  return directory_ ? directory_->stats() : objsys::DirectoryStats{};
}

void LiveSystem::set_directory_log(std::vector<objsys::DirectoryStep>* log) {
  std::lock_guard lock{mutex_};
  if (directory_) directory_->set_log(log);
}

bool LiveSystem::node_up(std::size_t node) const {
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  std::lock_guard lock{mutex_};
  return node_down_[node] == 0;
}

void LiveSystem::set_remote_peer(std::size_t node, transport::Peer peer) {
  OMIG_REQUIRE(remote(), "set_remote_peer is for remote clusters");
  OMIG_REQUIRE(node < node_count(), "node index out of range");
  if (tcp_ != nullptr) tcp_->set_peer(node, std::move(peer));
}

void LiveSystem::shutdown_remote_nodes() {
  if (!remote() || transport_ == nullptr) return;
  for (std::size_t node = 0; node < node_count(); ++node) {
    (void)transport_->send_shutdown(node);
  }
}

std::uint64_t LiveSystem::invocations() const { return invocations_.load(); }
std::uint64_t LiveSystem::remote_invocations() const { return remote_.load(); }
std::uint64_t LiveSystem::migrations() const { return migrations_.load(); }
std::uint64_t LiveSystem::refused_moves() const { return refused_.load(); }
migration::PolicyCounters LiveSystem::policy_counters() const {
  std::lock_guard lock{mutex_};
  return protocol_.counters();
}
std::uint64_t LiveSystem::ema_updates() const {
  std::lock_guard lock{mutex_};
  return locality_ != nullptr ? locality_->updates() : 0;
}
std::uint64_t LiveSystem::retries() const { return retries_.load(); }
std::uint64_t LiveSystem::lease_expiries() const {
  std::lock_guard lock{mutex_};
  return protocol_.lease_expiries();
}
std::uint64_t LiveSystem::crashes() const { return crashes_.load(); }
std::uint64_t LiveSystem::restarts() const { return restarts_.load(); }
std::uint64_t LiveSystem::recoveries() const { return recoveries_.load(); }
std::uint64_t LiveSystem::durable_recoveries() const {
  return durable_recoveries_.load();
}
std::uint64_t LiveSystem::replayed_objects() const {
  return replayed_objects_.load();
}

std::uint64_t LiveSystem::dropped_messages() const {
  return injector_ ? injector_->counters().dropped.load() : 0;
}

std::uint64_t LiveSystem::duplicated_messages() const {
  return injector_ ? injector_->counters().duplicated.load() : 0;
}

std::uint64_t LiveSystem::deduplicated_messages() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->deduplicated();
  return total;
}

std::uint64_t LiveSystem::send_rejections() const {
  return send_rejections_.load();
}

std::uint64_t LiveSystem::transport_reconnects() const {
  return tcp_ != nullptr ? tcp_->reconnects() : 0;
}

}  // namespace omig::runtime
