// A request in its envelope: what Transport::send carries.
//
// A request has one form wherever it travels, as the proxies of Section
// 3.1 linearise a call into one form: the Wire* bodies of transport/wire.
// In-process a body rides in an Envelope that points at the sender's
// ReplySlot, and the destination node serves it on the sending thread and
// writes the answer straight into that slot — no promise, no future, no
// allocation. A backend that keeps the envelope past send() (a socket,
// whose reply frame arrives later on another thread) first calls defer():
// the answer then travels through a promise whose future waits in the
// slot. The mailbox adaptor for standalone users and the future-returning
// send shorthands defer up front.
#pragma once

#include <future>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "transport/wire.hpp"

namespace omig::runtime {

/// Where the answer to one request lands: a slot its sender owns. After
/// send() returns it holds the answer itself (an inline answer), a future
/// of it (a deferred answer), or neither — the request was lost in flight
/// (injected drop, node down, rejected send), exactly as a broken promise
/// reads.
template <class T>
struct ReplySlot {
  std::optional<T> value;
  std::future<T> deferred;
};

/// One request plus where its answer goes. The target is the sender's
/// slot, valid only while send() runs on the sender's thread; answer()
/// writes there. An envelope destroyed unanswered leaves the slot empty,
/// or breaks its promise once defer() armed one. An envelope with neither
/// (an injected duplicate) discards its answer.
template <transport::Request Req>
class Envelope {
public:
  using Reply = typename Req::Reply;

  explicit Envelope(Req request, ReplySlot<Reply>* slot = nullptr)
      : body{std::move(request)}, slot_{slot} {}

  Req body;

  /// Delivers the answer: into the sender's slot, or through the promise
  /// once deferred.
  void answer(Reply value) {
    if (promise_.has_value()) {
      promise_->set_value(std::move(value));
    } else if (slot_ != nullptr) {
      slot_->value.emplace(std::move(value));
    }
  }

  /// For a backend that keeps the envelope past send(): arms a promise and
  /// hands its future to the sender's slot. Call on the sender's thread
  /// before send() returns. No-op when already deferred or unawaited.
  void defer() {
    if (promise_.has_value() || slot_ == nullptr) return;
    slot_->deferred = promise_.emplace().get_future();
    slot_ = nullptr;
  }

  /// True while the answer would be written into the sender's slot —
  /// which only a backend answering before send() returns may do.
  [[nodiscard]] bool answers_inline() const { return slot_ != nullptr; }

private:
  ReplySlot<Reply>* slot_;
  std::optional<std::promise<Reply>> promise_;
};

/// Every request kind, each in its envelope.
using Message = std::variant<Envelope<transport::WireInvoke>,
                             Envelope<transport::WireInstall>,
                             Envelope<transport::WireEvict>,
                             Envelope<transport::WireDirLookup>,
                             Envelope<transport::WireDirUpdate>>;

/// Envelops `body` — copied or moved straight into the message — with its
/// answer deferred up front: `reply` receives the answer's future. For
/// senders that hand the message to another thread (the mailbox adaptor)
/// or wait on a future (Transport's future shorthands).
template <class Body, transport::Request Req = std::remove_cvref_t<Body>>
[[nodiscard]] Message envelop(Body&& body,
                              std::future<typename Req::Reply>& reply) {
  ReplySlot<typename Req::Reply> slot;
  Message message{std::in_place_type<Envelope<Req>>, std::forward<Body>(body),
                  &slot};
  std::get<Envelope<Req>>(message).defer();
  reply = std::move(slot.deferred);
  return message;
}

}  // namespace omig::runtime
