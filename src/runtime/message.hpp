// A request in its envelope: what Transport::send carries.
//
// A request has one form wherever it travels, as the proxies of Section
// 3.1 linearise a call into one form: the Wire* bodies of transport/wire.
// In-process a body rides in an Envelope next to the promise its reply
// fulfils, and the destination node serves it on the sending thread; over
// a socket the same body is encoded into a frame and the promise waits at
// the sender for the reply frame. Three users still need the envelope:
// Transport::send's signature (so the system layer awaits a future on
// either backend), AsyncTcpTransport's parked replies, and LiveNode's
// mailbox adaptor for standalone users.
#pragma once

#include <future>
#include <type_traits>
#include <utility>
#include <variant>

#include "transport/wire.hpp"

namespace omig::runtime {

/// One request plus the promise its reply fulfils. An envelope destroyed
/// unanswered breaks the promise — the "lost in flight" signal the retry
/// layer reads (injected drop, node down, closed mailbox, reset link).
template <transport::Request Req>
struct Envelope {
  Req body;
  std::promise<typename Req::Reply> reply;
};

/// Every request kind, each in its envelope.
using Message = std::variant<Envelope<transport::WireInvoke>,
                             Envelope<transport::WireInstall>,
                             Envelope<transport::WireEvict>,
                             Envelope<transport::WireDirLookup>,
                             Envelope<transport::WireDirUpdate>>;

/// Envelops `body` — copied or moved straight into the message — and arms
/// `reply` with its answer's future.
template <class Body, transport::Request Req = std::remove_cvref_t<Body>>
[[nodiscard]] Message envelop(Body&& body,
                              std::future<typename Req::Reply>& reply) {
  Message message{std::in_place_type<Envelope<Req>>, std::forward<Body>(body)};
  reply = std::get<Envelope<Req>>(message).reply.get_future();
  return message;
}

}  // namespace omig::runtime
