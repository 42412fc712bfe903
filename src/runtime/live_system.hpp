// Live distributed-object system: the paper's primitives on real threads.
//
// Each node is a lock-guarded object table (LiveNode) whose handlers run
// on the thread that delivers a request; objects are property bags with a
// method table, linearised for transfer exactly as the proxies of Section
// 3.1 linearise calls. The system layer keeps the directory and carries
// out the placement protocol — the same migration::ProtocolCore the
// simulator drives, so every PolicyKind refuses, locks and migrates here
// exactly as it does there — and the paper's conflict scenarios can be
// reproduced outside the simulator.
//
// All inter-node traffic goes through a transport::Transport
// (docs/transport.md). The default InProc backend runs the destination
// node's handler on the calling thread, so a local invocation is a
// function call; the AsyncTcp backend encodes every request into a wire
// frame and sends it over a localhost socket from one event loop — either
// to NodeServers that serve this process's own nodes on that loop's
// thread, or (remote mode) to omig_node processes, which makes the system
// a cluster coordinator. No thread is started per node.
//
// Failure model (all off by default; see docs/fault_model.md): a
// FaultPlan perturbs message delivery (drop / delay / duplicate) and
// schedules node crashes. The protocol tolerates this with sequence-
// numbered at-most-once delivery, bounded retries with exponential
// backoff, placement-lock leases (a lock held by a dead move-block
// expires; the object is released in place and callers fall back to
// remote invocation — the paper's conflict fallback generalised to
// failures), and crash-consistent recovery: the directory checkpoints
// each object's linearised state at creation and every migration, and
// reinstalls from the checkpoint when a node restarts or a migration
// pulls an object off a dead node.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "migration/protocol.hpp"
#include "obs/families.hpp"
#include "objsys/directory_core.hpp"
#include "objsys/locality.hpp"
#include "runtime/live_node.hpp"
#include "store/store.hpp"
#include "trace/event.hpp"
#include "transport/transport.hpp"

namespace omig::trace {
class TraceLog;
}

namespace omig::net {
class EventLoop;
}

namespace omig::transport {
class AsyncTcpTransport;
class NodeServer;
}

namespace omig::runtime {

/// Which backend carries inter-node traffic. When Options::remote_nodes
/// is set, InProc is meaningless and upgrades to AsyncTcp.
enum class TransportKind : std::uint8_t {
  InProc,    ///< the node serves each request on the sending thread
  AsyncTcp,  ///< wire frames over localhost sockets (a NodeServer per
             ///< node), all I/O multiplexed on one net::EventLoop
};

class LiveSystem : private migration::ObjectView,
                   private objsys::DirectoryView {
public:
  struct Options {
    std::size_t nodes = 2;
    /// Artificial one-way latency added to remote operations, so examples
    /// show timing effects. Zero = as fast as the threads go.
    std::chrono::microseconds remote_latency{0};
    /// Restrict attachment transitiveness to the alliance a move names.
    bool a_transitive_attachments = false;
    /// How move()/visit() blocks are interpreted (docs/policies.md). Any
    /// PolicyKind: Placement (the default) refuses a conflicting move
    /// instead of stealing the object (Section 3.2); the adaptive kinds
    /// treat the requested destination as advisory and follow the
    /// per-object access-locality EMA instead.
    migration::PolicyKind policy = migration::PolicyKind::Placement;

    // --- adaptive-policy knobs (docs/policies.md) -------------------------
    // The locality tracker keeps its 0.9 EMA retention and AdaptiveLoad its
    // 2x-the-mean load veto (objsys::LocalityTracker, ProtocolOptions).
    /// Migrate only when the dominant node's EMA share leads the host's
    /// share by at least this margin (design decision 9, ARCHITECTURE.md).
    double hysteresis_band = 0.2;
    /// Minimum effective EMA sample size before migrating at all.
    double adaptive_min_weight = 4.0;

    // --- location directory (docs/directory.md) ---------------------------
    /// Central: every lookup reads the coordinator's directory map (the
    /// pre-sharding behaviour). Sharded: object names hash to shard slices
    /// served by the nodes themselves, fronted by per-origin lookup caches
    /// and forwarding hints — lookups become messages, so the protocol's
    /// consistency story is observable end to end. Each node serves one
    /// shard; objsys::DirectoryCore decides every step.
    objsys::DirectoryKind directory = objsys::DirectoryKind::Central;
    /// How caches learn about migrations (docs/directory.md). Under
    /// LeaseTtl an entry lives DirectoryCore::kLeaseOps directory ops.
    objsys::ConsistencyStrategy dir_strategy =
        objsys::ConsistencyStrategy::LazyForward;

    // --- transport --------------------------------------------------------
    /// Backend for inter-node traffic (docs/transport.md).
    TransportKind transport = TransportKind::InProc;
    /// Remote cluster mode: endpoints of already-running omig_node
    /// processes, indexed by node id. Non-empty means this system hosts no
    /// local nodes (`nodes` is ignored) and coordinates the cluster over
    /// TCP.
    std::vector<transport::Peer> remote_nodes;
    /// Optional protocol-event trace, recorded at the directory layer on a
    /// logical clock so the same workload yields the same trace under
    /// every transport backend. Non-owning; must outlive the system.
    trace::TraceLog* trace = nullptr;

    // --- fault tolerance (defaults preserve pre-fault behaviour) ----------
    /// Message faults and crash schedule; empty = nothing is perturbed.
    /// Times in the plan are milliseconds after start().
    fault::FaultPlan fault_plan;
    /// Placement-lock lease: a lock older than this expires and the object
    /// is released in place. Zero = locks never expire (paper semantics).
    std::chrono::milliseconds lock_lease{0};
    /// Retransmission budget per message (a lost message or crashed node
    /// breaks the reply promise; each retry re-sends under the same
    /// sequence number, so delivery stays at-most-once).
    int max_retries = 8;
    /// Base backoff between retries; doubled per attempt (capped).
    std::chrono::milliseconds retry_backoff{1};
    /// Optional reply timeout per delivery attempt; zero = wait forever
    /// (losses are observed through broken promises, not timeouts).
    std::chrono::milliseconds reply_timeout{0};

    // --- durability (docs/durability.md) ----------------------------------
    /// Directory for the coordinator's durable store: a CRC32-framed WAL
    /// plus compacted snapshots recording every object checkpoint,
    /// migration, and lease grant. Empty = in-memory only (pre-durability
    /// behaviour). On start() the store is recovered and every surviving
    /// object is reinstalled on its recorded node; no acked migration is
    /// lost across a coordinator restart. The store auto-compacts every
    /// 256 WAL appends, and once more at stop().
    std::string data_dir;
  };

  /// The block move()/visit() opened, as the protocol core tracks it:
  /// `granted` is false when the move was refused (the caller invokes
  /// remotely), `locked` the placement locks the block holds, `moved` and
  /// `origins_of_moved` what it migrated from where. An invalid `id` means
  /// no block (unknown object, or already ended).
  using MoveToken = migration::MoveBlock;

  explicit LiveSystem(Options options);
  ~LiveSystem();
  LiveSystem(const LiveSystem&) = delete;
  LiveSystem& operator=(const LiveSystem&) = delete;

  /// Registers the factory that rebuilds objects of `type` after migration.
  /// Must be called before `start()`.
  void register_type(const std::string& type, ObjectFactory factory);

  /// Brings up every node and the transport, and starts the fault
  /// schedule's thread if the plan has crashes. In remote mode no node is
  /// hosted here — the configured omig_node processes must already be
  /// listening.
  void start();
  /// Takes every node down (also done by the destructor). Idempotent and
  /// safe to call from several threads concurrently. Remote node processes
  /// are left running — see shutdown_remote_nodes().
  void stop();

  [[nodiscard]] std::size_t node_count() const { return hosted_.size(); }
  /// True when this system coordinates omig_node processes over TCP
  /// instead of hosting its own nodes.
  [[nodiscard]] bool remote() const { return !options_.remote_nodes.empty(); }

  /// Creates an object on `node`. Fails (returns false) on duplicate names
  /// or unknown type.
  bool create(const std::string& name, ObjectState state, std::size_t node);

  /// Current node of an object, or nullopt if unknown.
  [[nodiscard]] std::optional<std::size_t> location(
      const std::string& name) const;

  /// Synchronous invocation from outside any node.
  InvokeResult invoke(const std::string& object, const std::string& method,
                      const std::string& argument) {
    return invoke_impl(std::nullopt, object, method, argument);
  }

  /// Synchronous invocation on behalf of code running at `from` — counts
  /// remote statistics, pays the artificial remote latency, and feeds the
  /// adaptive kinds' locality EMA.
  InvokeResult invoke_from(std::size_t from, const std::string& object,
                           const std::string& method,
                           const std::string& argument) {
    return invoke_impl(from, object, method, argument);
  }

  // --- the paper's primitives ------------------------------------------------
  void fix(const std::string& name);
  void unfix(const std::string& name);
  [[nodiscard]] bool is_fixed(const std::string& name) const;

  /// attach(a, b) in alliance context `alliance` ("" = no context).
  bool attach(const std::string& a, const std::string& b,
              const std::string& alliance = "");
  bool detach(const std::string& a, const std::string& b);

  /// Raw migrate(): moves `object` and its attachment closure (restricted
  /// to `alliance` when a_transitive_attachments is on) to `dest`. Fixed
  /// objects stay. Returns false if the object is unknown.
  bool migrate(const std::string& object, std::size_t dest,
               const std::string& alliance = "");

  /// move(): asks for `object`'s cluster at `dest` on behalf of code there,
  /// interpreted under Options::policy — placement grants and locks, or
  /// refuses if a conflicting move holds the object; conventional always
  /// migrates; the adaptive kinds may pick another node or stay put.
  MoveToken move(const std::string& object, std::size_t dest,
                 const std::string& alliance = "") {
    return open_block(object, dest, alliance, /*visit=*/false);
  }

  /// visit(): like move(), but end() migrates the moved objects back to
  /// where they came from (paper Section 2.3, call-by-visit).
  MoveToken visit(const std::string& object, std::size_t dest,
                  const std::string& alliance = "") {
    return open_block(object, dest, alliance, /*visit=*/true);
  }

  /// end(): releases the block's placement locks and open-move counts and
  /// runs the migrations the end-request triggers — visit() return trips,
  /// compare-reinstantiate's reinstantiation. Ending a token twice is a
  /// no-op.
  void end(MoveToken& token);

  // --- failure injection -----------------------------------------------------
  /// Abruptly kills node `node`: it rejects every later request, and its
  /// hosted object state is lost; under TCP its listener goes down too, so
  /// peers observe connection resets. Locks held by move-blocks that
  /// originated there stay held until their lease expires. In remote mode
  /// this only records the death (kill the process yourself) and resets
  /// the connection. Also driven automatically by the fault plan's crashes.
  void crash_node(std::size_t node);
  /// Restarts a crashed node and reconciles the directory: every object
  /// the directory places there is reinstalled from its last checkpoint.
  /// In remote mode the node process must already be back up (relaunch it
  /// and call set_remote_peer first).
  void restart_node(std::size_t node);
  [[nodiscard]] bool node_up(std::size_t node) const;

  /// Remote mode: re-points `node` at a restarted omig_node process (the
  /// relaunched process owns a fresh port).
  void set_remote_peer(std::size_t node, transport::Peer peer);
  /// Remote mode: asks every remote node process to exit (fire-and-forget).
  void shutdown_remote_nodes();

  // --- statistics -------------------------------------------------------------
  [[nodiscard]] std::uint64_t invocations() const;
  [[nodiscard]] std::uint64_t remote_invocations() const;
  [[nodiscard]] std::uint64_t migrations() const;
  [[nodiscard]] std::uint64_t refused_moves() const;
  // Robustness counters (all zero in a fault-free run).
  [[nodiscard]] std::uint64_t retries() const;
  [[nodiscard]] std::uint64_t lease_expiries() const;
  [[nodiscard]] std::uint64_t crashes() const;
  [[nodiscard]] std::uint64_t restarts() const;
  /// Objects reinstalled from a checkpoint (restart reconciliation or a
  /// migration that pulled an object off a dead node).
  [[nodiscard]] std::uint64_t recoveries() const;
  /// Of recoveries(), those whose checkpoint was backed by the durable
  /// store (fsynced append or disk replay) rather than only coordinator
  /// memory. Zero without Options::data_dir.
  [[nodiscard]] std::uint64_t durable_recoveries() const;
  /// Objects rebuilt from the durable store's WAL/snapshot at start().
  [[nodiscard]] std::uint64_t replayed_objects() const;
  /// The coordinator's durable store, or nullptr without a data_dir.
  [[nodiscard]] const store::DurableStore* store() const {
    return store_.get();
  }
  /// Adaptive-policy decision tallies (all zero unless Options::policy is
  /// Adaptive/AdaptiveLoad; docs/policies.md).
  [[nodiscard]] migration::PolicyCounters policy_counters() const;
  /// Locality-EMA updates recorded by invocations.
  [[nodiscard]] std::uint64_t ema_updates() const;

  [[nodiscard]] std::uint64_t dropped_messages() const;
  [[nodiscard]] std::uint64_t duplicated_messages() const;
  /// Messages answered from the nodes' dedup caches.
  [[nodiscard]] std::uint64_t deduplicated_messages() const;
  /// Sends the transport rejected with a typed status (a crashed in-proc
  /// node, an oversized frame) — each one fed a retry decision. A dead
  /// socket peer shows up as retries() instead: its replies are lost, not
  /// rejected.
  [[nodiscard]] std::uint64_t send_rejections() const;
  /// TCP connections re-established after a reset (0 for in-proc).
  [[nodiscard]] std::uint64_t transport_reconnects() const;

  // Sharded-directory counters (all zero under DirectoryKind::Central).
  /// Location resolutions that went through the sharded protocol.
  [[nodiscard]] std::uint64_t dir_lookups() const {
    return dir_stats().lookups;
  }
  /// Resolutions answered by the origin's lookup cache.
  [[nodiscard]] std::uint64_t dir_cache_hits() const {
    return dir_stats().cache_hits;
  }
  /// Resolutions started by an invoke that found the object gone.
  [[nodiscard]] std::uint64_t dir_stale_hits() const {
    return dir_stats().stale_hits;
  }
  /// Forwarding-hint hops chased after stale hits (LazyForward).
  [[nodiscard]] std::uint64_t dir_forward_hops() const {
    return dir_stats().forward_hops;
  }
  /// Slice/hint updates published to shard owners and old hosts.
  [[nodiscard]] std::uint64_t dir_updates() const {
    return dir_stats().updates;
  }
  /// Cache entries eagerly invalidated by migrations (EagerInvalidate).
  [[nodiscard]] std::uint64_t dir_invalidations() const {
    return dir_stats().invalidations;
  }
  /// Resolutions the coordinator's map answered (owner down, no entry).
  [[nodiscard]] std::uint64_t dir_fallbacks() const {
    return dir_stats().fallbacks;
  }
  /// Node serving `name`'s directory shard: one shard per node (FNV-1a,
  /// so the hash is stable across processes).
  [[nodiscard]] std::size_t directory_shard_owner(
      const std::string& name) const;
  /// Sharded mode, after start(): appends every directory request and
  /// answer to `log` (null stops). Not owned.
  void set_directory_log(std::vector<objsys::DirectoryStep>* log);

private:
  /// The directory's record of one object, indexed by its dense ObjectId
  /// (creation order — also the object's id in the protocol trace).
  struct Meta {
    std::string name;
    std::size_t node = 0;  ///< kGone once a failed create released the name
    bool fixed = false;
    bool in_transit = false;
    /// The object may sit on no node: a transfer's install and its
    /// put-back both failed, or a restart could not revive it. An invoke
    /// that `node` answers without the object reinstalls it there from the
    /// checkpoint.
    bool lost = false;
    /// Last linearised state the directory has seen (creation or most
    /// recent migration) — the crash-recovery checkpoint.
    ObjectState checkpoint;
    /// Completed relocations of this object (location-history cursor;
    /// persisted in the store's checkpoint records).
    std::uint64_t moves = 0;
    /// The checkpoint is backed by the durable store — a fsynced WAL
    /// append or a recovery replay — so restart reconciliation counts its
    /// reinstall as a durable recovery, not just an in-memory one.
    bool durable = false;
  };

  /// Sender id for messages not originating at any node (external clients,
  /// directory operations). Matches only wildcard fault rules.
  static constexpr std::size_t kExternalSender =
      static_cast<std::size_t>(-2);
  /// Meta::node of an object whose create failed (its name is free again).
  static constexpr std::size_t kGone = static_cast<std::size_t>(-1);

  // migration::ObjectView — the directory as the protocol core reads it.
  // The core is only ever called with `mutex_` held.
  [[nodiscard]] objsys::NodeId host(migration::ObjectId obj) const override {
    return node_id(meta(obj).node);
  }
  [[nodiscard]] bool pinned(migration::ObjectId obj) const override {
    return meta(obj).fixed;
  }
  [[nodiscard]] bool immutable(migration::ObjectId) const override {
    return false;  // live objects are all mutable
  }
  [[nodiscard]] bool in_transit(migration::ObjectId obj) const override {
    return meta(obj).in_transit;
  }
  [[nodiscard]] std::size_t hosted(objsys::NodeId node) const override {
    return hosted_[node.value()];
  }
  [[nodiscard]] std::size_t object_count() const override {
    return ids_.size();
  }
  /// Milliseconds since construction: the unit of Options::lock_lease.
  [[nodiscard]] double now() const override;
  // objsys::DirectoryView (`host` serves both views), under `mutex_` too.
  [[nodiscard]] objsys::NodeId owner(migration::ObjectId obj) const override {
    return node_id(directory_shard_owner(meta(obj).name));
  }
  [[nodiscard]] bool up(objsys::NodeId node) const override {
    return node_down_[node.value()] == 0;
  }
  [[nodiscard]] std::size_t object_bound() const override {
    return objects_.size();
  }
  /// Records a protocol event on the logical clock (requires `mutex_`).
  /// No-op without Options::trace.
  void record(trace::EventKind kind, migration::ObjectId object,
              objsys::NodeId node, migration::BlockId block) override;

  [[nodiscard]] Meta& meta(migration::ObjectId id) {
    return objects_[id.value()];
  }
  [[nodiscard]] const Meta& meta(migration::ObjectId id) const {
    return objects_[id.value()];
  }
  /// `node` as a protocol NodeId; invalid for kExternalSender / kGone.
  [[nodiscard]] objsys::NodeId node_id(std::size_t node) const {
    return node < node_count()
               ? objsys::NodeId{static_cast<objsys::NodeId::value_type>(node)}
               : objsys::NodeId::invalid();
  }
  /// Id of a live object, or invalid() (requires `mutex_`).
  [[nodiscard]] migration::ObjectId find_locked(const std::string& name) const;
  /// Registers a new directory entry at `node` (requires `mutex_`).
  migration::ObjectId add_locked(const std::string& name, std::size_t node,
                                 ObjectState checkpoint);
  /// Interns an alliance name; "" is no alliance (requires `mutex_`).
  migration::AllianceId alliance_locked(const std::string& name);

  /// One member of a transfer: a claimed object and the node it moves to.
  struct Leg {
    migration::ObjectId id;
    std::size_t dest = 0;
  };

  /// One request of an overlapped delivery, and what came of it.
  template <transport::Request Req>
  struct Delivery {
    std::size_t from = 0;
    std::size_t to = 0;
    Req request{};
    /// nullopt = the peer stayed unreachable — or, with stop_on_rejection,
    /// rejected an attempt outright.
    std::optional<typename Req::Reply> reply{};
    std::future<typename Req::Reply> first{};  ///< the attempt in flight
    /// The transport refused the first attempt — or the caller set it, as
    /// the peer is known down, and deliver_all() sends nothing.
    bool rejected = false;
  };

  MoveToken open_block(const std::string& object, std::size_t dest,
                       const std::string& alliance, bool visit);
  /// Mirrors one move decision into the registry families (refusals, lease
  /// grants and expiries, adaptive tallies since `expiries` / `before`) and
  /// the store's lease audit records (requires `mutex_`).
  void mirror_decision_locked(const MoveToken& token, std::uint64_t expiries,
                              const migration::PolicyCounters& before);
  /// Waits until no object `relocations` name is in transit, then claims
  /// those that can and need to move to their relocation's destination:
  /// marks them in transit and notes their origins in `blk` (if any).
  /// Returns the claimed members, in order — one transfer's legs.
  std::vector<Leg> claim_locked(
      std::unique_lock<std::mutex>& lock,
      std::span<const migration::Relocation> relocations,
      migration::MoveBlock* blk);
  /// Carries out one transfer of claimed `legs` on behalf of `block`, in
  /// three overlapped phases: every evict, every install, every directory
  /// update (docs/MODEL.md §5).
  void relocate(const std::vector<Leg>& legs, migration::BlockId block);

  /// Reinstalls a lost object (Meta::lost) from its checkpoint at the
  /// node the directory names, once that node has answered without it;
  /// holds it in transit meanwhile. Called and returns with `lock` held on
  /// `mutex_`.
  void reinstall_lost(std::unique_lock<std::mutex>& lock,
                      migration::ObjectId id);

  InvokeResult invoke_impl(std::optional<std::size_t> from,
                           const std::string& object,
                           const std::string& method,
                           const std::string& argument);

  /// Delivers every request in `batch` under the bounded retry budget:
  /// sends each first attempt, in order, before awaiting any reply, then
  /// retries those that failed, in order. Each request gets a fresh
  /// sequence number that its retries reuse, so the receiving node applies
  /// it at most once; retries follow an exponential backoff. With
  /// `stop_on_rejection`, a request the transport rejects (or that is
  /// marked rejected beforehand) is not retried.
  /// Never called with `mutex_` held: an in-proc send runs the node's
  /// handler on this thread, and handlers never call into the system, so
  /// a node's mutex is always the innermost lock.
  template <transport::Request Req>
  void deliver_all(std::span<Delivery<Req>> batch,
                   bool stop_on_rejection = false);
  /// deliver_all() of the one request `request` from `from` to `to`.
  template <transport::Request Req>
  std::optional<typename Req::Reply> deliver(std::size_t from, std::size_t to,
                                             Req request);

  /// True when the transport accepted the send; a typed rejection is
  /// counted and the caller retries (the peer may come back).
  bool sent_ok(transport::SendStatus status);

  /// Waits for a reply future, honouring Options::reply_timeout. nullopt =
  /// the message (or its processing node) died — retry.
  template <class T>
  std::optional<T> await_reply(std::future<T>& reply);

  /// Sleeps the exponential-backoff delay for retry `attempt` (>= 1).
  void backoff(int attempt);

  /// True once any fault machinery is active (injector, crash calls);
  /// gates the bounded-retry deviations from pre-fault behaviour.
  [[nodiscard]] bool faults_active() const;

  /// Replays the fault plan's crash schedule on wall-clock time.
  void run_fault_schedule();

  // --- sharded directory (DirectoryKind::Sharded) ------------------------
  /// Resolves `id` for a caller at `from` through the directory core,
  /// sending each lookup it asks for; `stale` names a node an invoke just
  /// found without it. nullopt = unresolved: the host is down. Called and
  /// returns with `lock` held on `mutex_`.
  std::optional<std::size_t> locate_locked(
      std::unique_lock<std::mutex>& lock, std::optional<std::size_t> from,
      migration::ObjectId id, std::optional<std::size_t> stale);
  /// Sends the updates `updates()` returns (called under `mutex_`), all
  /// before any is awaited. Best-effort: a restart reseeds what is lost.
  template <class F>
  void dir_send(F&& updates);
  [[nodiscard]] objsys::DirectoryStats dir_stats() const;

  /// Rebuilds the directory from the recovered store and reinstalls every
  /// surviving object on its recorded node (start() with a data_dir).
  void recover_from_store();

  Options options_;
  std::unordered_map<std::string, ObjectFactory> factories_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  bool started_ = false;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  // --- the directory; all guarded by mutex_ -------------------------------
  mutable std::mutex mutex_;
  std::condition_variable transit_cv_;
  /// Every object ever created, by ObjectId (a deque: references stay valid
  /// while others are appended).
  std::deque<Meta> objects_;
  std::unordered_map<std::string, migration::ObjectId> ids_;
  std::unordered_map<std::string, migration::AllianceId> alliances_;
  /// Objects whose directory entry places them at each node.
  std::vector<std::size_t> hosted_;
  std::vector<char> node_down_;
  std::uint64_t trace_clock_ = 0;
  migration::AttachmentGraph attachments_;
  migration::ProtocolCore protocol_;
  /// Access-locality telemetry (docs/policies.md); null unless the policy
  /// is adaptive.
  std::unique_ptr<objsys::LocalityTracker> locality_;
  /// Cached obs family ("adaptive" / "adaptive-load"); set in start().
  std::optional<obs::PolicyMetrics> policy_obs_;

  /// The sharded directory's protocol (Sharded mode), and its counters as
  /// last counted into the registry.
  std::optional<objsys::DirectoryCore> directory_;
  objsys::DirectoryStats dir_counted_;

  std::unique_ptr<fault::FaultInjector> injector_;
  /// Coordinator-level durable store (Options::data_dir); null = in-memory.
  std::unique_ptr<store::DurableStore> store_;
  /// Shared proactor loop in AsyncTcp mode (null otherwise). Declared
  /// before the servers and the transport so it destructs after them —
  /// their teardown posts final tasks onto it.
  std::unique_ptr<net::EventLoop> net_loop_;
  /// One frame server per local node in TCP mode (empty otherwise).
  std::vector<std::unique_ptr<transport::NodeServer>> servers_;
  /// Every send runs outside `mutex_` (see deliver_all()).
  std::unique_ptr<transport::Transport> transport_;
  /// transport_, when it is the socket backend.
  transport::AsyncTcpTransport* tcp_ = nullptr;

  std::mutex stop_mutex_;
  std::thread fault_thread_;
  std::mutex fault_mutex_;
  std::condition_variable fault_cv_;
  bool shutting_down_ = false;

  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<std::uint64_t> invocations_{0};
  std::atomic<std::uint64_t> remote_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> durable_recoveries_{0};
  std::atomic<std::uint64_t> replayed_objects_{0};
  std::atomic<std::uint64_t> send_rejections_{0};
};

}  // namespace omig::runtime
