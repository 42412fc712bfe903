// Transport seam of the live runtime.
//
// Walker et al. (PAPERS.md) argue transmission policy belongs behind a
// clean transport boundary; this is that boundary for the live runtime,
// and it is one method wide. The system layer hands send() a
// runtime::Message — a Wire* request in its envelope, pointing at the
// sender's reply slot — and reads the slot once send() returns; *how* the
// request reaches the hosting node, and when its answer lands, is the
// backend's business:
//
//   InProcTransport   — the destination runtime::LiveNode serves the
//                       envelope on the sending thread and writes the
//                       answer into the sender's slot before send()
//                       returns: a local invocation is a function call,
//                       and no promise is made.
//   AsyncTcpTransport — the body is encoded into a wire frame
//                       (transport/wire) and sent over a localhost socket
//                       from one event loop. The envelope defers its
//                       answer: a promise parks under a correlation ID
//                       until the reply frame comes back, and its future
//                       waits in the slot. Peers may live in the same
//                       process (a NodeServer whose handler serves the
//                       node on the loop thread) or in separate omig_node
//                       processes.
//
// Fault injection lives at this seam: every send consults the shared
// fault::FaultInjector, so one FaultPlan drives both backends — drops
// destroy the message (its slot stays empty, or its promise breaks: the
// in-flight loss the retry layer observes), delays hold it back, and
// duplicates travel as same-seq copies whose answers nobody awaits.
//
// Send failures are explicit where the backend knows them on the spot:
// SendStatus tells the retry/backoff layer *that* and *why* an endpoint
// rejected a message (a crashed in-proc node, an oversized frame). A dead
// socket peer is only learnt asynchronously, so there it surfaces as a
// broken deferred reply.
#pragma once

#include <cstdint>
#include <functional>
#include <future>

#include "fault/injector.hpp"
#include "runtime/message.hpp"
#include "transport/wire.hpp"

namespace omig::runtime {
class LiveNode;
}

namespace omig::transport {

/// Typed verdict of one send attempt. Ok means the message was handed to
/// the endpoint — delivery can still fail (injected drop, crash
/// mid-flight, dead peer), which the caller observes as an empty reply
/// slot or a broken deferred reply.
enum class SendStatus : std::uint8_t {
  Ok = 0,
  Closed,       ///< endpoint rejected it: node down / transport stopping
  Unreachable,  ///< no such peer, or a shutdown frame never hit the wire
  Oversized,    ///< frame exceeds kMaxFramePayload
};

/// A peer endpoint of the socket backend.
struct Peer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class Transport {
public:
  virtual ~Transport() = default;

  /// Sends a request towards node `to`. The envelope's answer lands in
  /// the sender's slot before send() returns, or — if the backend defers
  /// it — through a promise fulfilled by the peer's answer or broken when
  /// the message or its node dies. `from` is the sending node (or the
  /// system layer's external-sender sentinel) — it only feeds the fault
  /// injector's link matching.
  virtual SendStatus send(std::size_t from, std::size_t to,
                          runtime::Message message) = 0;

  /// Typed form of send(): envelops a copy of `msg` with `reply` as its
  /// answer's slot (emptied first).
  template <Request Req>
  SendStatus send(std::size_t from, std::size_t to, const Req& msg,
                  runtime::ReplySlot<typename Req::Reply>& reply) {
    reply = {};
    return send(from, to,
                runtime::Message{std::in_place_type<runtime::Envelope<Req>>,
                                 msg, &reply});
  }
  /// Typed form of send() for callers that wait on a future: the answer is
  /// deferred up front, on every backend.
  template <Request Req>
  SendStatus send(std::size_t from, std::size_t to, const Req& msg,
                  std::future<typename Req::Reply>& reply) {
    return send(from, to, runtime::envelop(msg, reply));
  }
  /// Named shorthands of the future form for the two requests that
  /// standalone clients of a node (probes, tools) send.
  SendStatus send_invoke(std::size_t from, std::size_t to,
                         const WireInvoke& msg,
                         std::future<runtime::InvokeResult>& reply) {
    return send(from, to, msg, reply);
  }
  SendStatus send_install(std::size_t from, std::size_t to,
                          const WireInstall& msg, std::future<bool>& reply) {
    return send(from, to, msg, reply);
  }

  /// Fire-and-forget stop request (multi-process mode). No reply: a socket
  /// peer simply closes the connection.
  virtual SendStatus send_shutdown(std::size_t to) = 0;

  /// Crash notification from the system layer, so a backend can drop
  /// per-peer state (socket: reset the connection; in-proc: nothing — the
  /// crashed node itself rejects sends).
  virtual void on_node_crash(std::size_t node) { (void)node; }

protected:
  explicit Transport(fault::FaultInjector* injector) : injector_{injector} {}

  /// Per-message verdict from the shared injector (no-fault default).
  [[nodiscard]] fault::Decision decide(std::size_t from, std::size_t to) {
    return injector_ ? injector_->on_message(from, to) : fault::Decision{};
  }

private:
  fault::FaultInjector* injector_;  ///< non-owning; may be null
};

/// The in-process backend: the destination node serves each message on
/// the sending thread (runtime::LiveNode::serve), so the answer is in the
/// sender's slot when send() returns; it never defers. A node that is
/// down yields SendStatus::Closed and leaves the slot empty.
class InProcTransport final : public Transport {
public:
  /// `nodes` resolves a node index to its (possibly crashed) node, or
  /// nullptr; every node must outlive the transport.
  using NodeLookup = std::function<runtime::LiveNode*(std::size_t)>;

  InProcTransport(NodeLookup nodes, fault::FaultInjector* injector)
      : Transport{injector}, nodes_{std::move(nodes)} {}

  using Transport::send;
  SendStatus send(std::size_t from, std::size_t to,
                  runtime::Message message) override;
  /// Stops the node: it rejects every later request.
  SendStatus send_shutdown(std::size_t to) override;

private:
  NodeLookup nodes_;
};

}  // namespace omig::transport
