#include "transport/transport.hpp"

#include <chrono>
#include <thread>

namespace omig::transport {

namespace {

/// A same-body copy of `message` whose reply nobody awaits — how injected
/// duplicates travel.
runtime::Message unawaited_copy(const runtime::Message& message) {
  return std::visit(
      [](const auto& envelope) -> runtime::Message {
        return std::decay_t<decltype(envelope)>{envelope.body, {}};
      },
      message);
}

}  // namespace

const char* to_string(SendStatus status) {
  switch (status) {
    case SendStatus::Ok:
      return "ok";
    case SendStatus::Closed:
      return "closed";
    case SendStatus::Unreachable:
      return "unreachable";
    case SendStatus::Oversized:
      return "oversized";
  }
  return "unknown";
}

SendStatus InProcTransport::send(std::size_t from, std::size_t to,
                                 runtime::Message message) {
  runtime::Mailbox<runtime::Message>* box = mailboxes_(to);
  if (box == nullptr) return SendStatus::Closed;
  const fault::Decision d = decide(from, to);
  if (d.delay > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>{d.delay});
  }
  // Lost in flight: the message dies here and the sender observes the
  // loss through its broken reply.
  if (d.drop) return SendStatus::Ok;
  if (d.duplicate) (void)box->push(unawaited_copy(message));
  return box->push(std::move(message)) == runtime::PushStatus::Ok
             ? SendStatus::Ok
             : SendStatus::Closed;
}

SendStatus InProcTransport::send_shutdown(std::size_t to) {
  runtime::Mailbox<runtime::Message>* box = mailboxes_(to);
  if (box == nullptr || box->closed()) return SendStatus::Closed;
  box->close();
  return SendStatus::Ok;
}

}  // namespace omig::transport
