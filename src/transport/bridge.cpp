#include "transport/bridge.hpp"

#include <future>

namespace omig::transport {

std::optional<Frame> serve_on_mailbox(
    runtime::Mailbox<runtime::Message>& mailbox, Frame&& request) {
  const std::uint64_t corr = request.corr;
  return std::visit(
      [&](auto& body) -> std::optional<Frame> {
        using T = std::decay_t<decltype(body)>;
        if constexpr (Request<T>) {
          std::future<typename T::Reply> reply;
          if (mailbox.push(runtime::envelop(std::move(body), reply)) !=
              runtime::PushStatus::Ok) {
            return std::nullopt;
          }
          try {
            return Frame{corr, WireReply<T>{reply.get()}};
          } catch (const std::future_error&) {
            return std::nullopt;  // discarded by a crash before processing
          }
        } else {
          if constexpr (std::is_same_v<T, WireShutdown>) mailbox.close();
          return std::nullopt;  // no reply to a shutdown or a stray reply
        }
      },
      request.payload);
}

}  // namespace omig::transport
