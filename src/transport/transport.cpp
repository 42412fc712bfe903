#include "transport/transport.hpp"

#include <chrono>
#include <thread>

#include "runtime/live_node.hpp"

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

SendStatus InProcTransport::send(std::size_t from, std::size_t to,
                                 runtime::Message message) {
  runtime::LiveNode* node = nodes_(to);
  if (node == nullptr) return SendStatus::Closed;
  const fault::Decision d = decide(from, to);
  if (d.delay > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>{d.delay});
  }
  // Lost in flight: the message dies here and the sender observes the
  // loss through its broken reply.
  if (d.drop) return SendStatus::Ok;
  // The copy is served first, so the original is the node's dedup hit.
  if (d.duplicate) (void)node->serve(unawaited_copy(message));
  return node->serve(std::move(message)) == runtime::PushStatus::Ok
             ? SendStatus::Ok
             : SendStatus::Closed;
}

SendStatus InProcTransport::send_shutdown(std::size_t to) {
  runtime::LiveNode* node = nodes_(to);
  if (node == nullptr || !node->running()) return SendStatus::Closed;
  node->stop();
  return SendStatus::Ok;
}

}  // namespace omig::transport
