// Bridges wire frames onto a live node's mailbox.
//
// The mailbox adaptor's server side, for standalone users that host a
// runtime::LiveNode on its drain thread (benchmark probes, link tests): a
// request frame's body is enveloped with its answer deferred up front (it
// is answered on the drain thread), pushed into the mailbox, and the
// awaited reply value goes back as the reply frame quoting the request's
// correlation ID. It blocks the
// NodeServer loop thread it runs on until the node answers, so it serves
// one request at a time. LiveSystem and omig_node call
// LiveNode::serve_frame on the loop thread instead. Node semantics —
// at-most-once dedup, reply caches, crash behaviour — stay in LiveNode;
// the bridge only carries.
#pragma once

#include <optional>

#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "transport/wire.hpp"

namespace omig::transport {

/// Serves one request frame against `mailbox`. Returns the reply frame, or
/// nullopt when there is nothing to send back: a rejected push (mailbox
/// closed), a promise broken by a crash mid-processing, a fire-and-forget
/// Shutdown (which closes the mailbox: the node drains what is queued,
/// then stops), or a nonsensical frame (a reply sent to a server). The
/// caller's loss signal in all of those cases is the connection reset.
[[nodiscard]] std::optional<Frame> serve_on_mailbox(
    runtime::Mailbox<runtime::Message>& mailbox, Frame&& request);

}  // namespace omig::transport
