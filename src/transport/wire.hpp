// Wire protocol for the live runtime: every request and reply as a
// length-prefixed frame.
//
// The Wire* request bodies below are the runtime's one request vocabulary:
// in-process they travel inside a runtime::Envelope next to a
// `std::promise` of their reply, which cannot cross a process boundary. At
// the socket seam a request instead carries a correlation ID, and the peer
// answers with a reply frame quoting the same ID — the sending transport
// matches it back to the waiting promise. The frame layout is
//
//     u32  payload length (little-endian, excludes this prefix)
//     u8   protocol version (kWireVersion)
//     u8   frame type (FrameType)
//     u64  correlation ID (little-endian)
//     ...  type-specific body
//
// Strings use the same u32-length-prefix idiom as runtime/serde, and an
// embedded ObjectState is carried as a serde blob, so the object codec is
// written (and validated) exactly once. Decoding follows runtime/serde's
// strict discipline: truncation, overlong lengths, unknown versions or
// types, and trailing bytes all reject the frame — decode never reads past
// the buffer and never throws.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "runtime/object_state.hpp"

namespace omig::transport {

/// Protocol version stamped into every frame header.
inline constexpr std::uint8_t kWireVersion = 2;

/// Upper bound on one frame's payload. A length prefix beyond this is
/// treated as malformed before any allocation happens, so a corrupt or
/// hostile peer cannot make the receiver reserve gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  Invoke = 1,
  Install = 2,
  Evict = 3,
  Shutdown = 4,
  InvokeReply = 5,
  InstallReply = 6,
  EvictReply = 7,
  DirLookup = 8,
  DirUpdate = 9,
  DirLookupReply = 10,
  DirUpdateReply = 11,
};

[[nodiscard]] const char* to_string(FrameType type);

// --- requests ---------------------------------------------------------------
//
// Each request names the value its reply carries (`Reply`) and a sequence
// number: a retransmission (after a lost message or a crashed node) reuses
// the seq of the original, and the receiving node deduplicates — the
// request takes effect at most once, a duplicate is answered from a
// bounded reply cache. seq 0 disables deduplication.

/// A frame body that names the value its reply carries.
template <class T>
concept Request = requires { typename T::Reply; };

/// Synchronous method invocation.
struct WireInvoke {
  using Reply = runtime::InvokeResult;
  std::uint64_t seq = 0;
  std::string object;
  std::string method;
  std::string argument;

  friend bool operator==(const WireInvoke&, const WireInvoke&) = default;
};

/// Installs a (migrated or new) object on the receiving node; the reply
/// says whether it took. A duplicate of the same (name, seq) is
/// acknowledged without rebuilding the object.
struct WireInstall {
  using Reply = bool;
  std::uint64_t seq = 0;
  std::string name;
  runtime::ObjectState state;

  friend bool operator==(const WireInstall&, const WireInstall&) = default;
};

/// Evicts an object: the node linearises it, removes it, and replies with
/// the state (empty type on failure). A duplicate replies with the state
/// captured by the first delivery.
struct WireEvict {
  using Reply = runtime::ObjectState;
  std::uint64_t seq = 0;
  std::string name;

  friend bool operator==(const WireEvict&, const WireEvict&) = default;
};

/// A node's directory entry for a name: a shard-slice record or a
/// forwarding hint, and the node it points at (docs/directory.md).
struct DirEntry {
  bool found = false;
  std::uint64_t node = 0;

  friend bool operator==(const DirEntry&, const DirEntry&) = default;
};

/// Asks a shard-owner node for its directory entry for `name`. Read-only
/// and idempotent; seq is carried for symmetry but needs no dedup.
struct WireDirLookup {
  using Reply = DirEntry;
  std::uint64_t seq = 0;
  std::string name;

  friend bool operator==(const WireDirLookup&,
                         const WireDirLookup&) = default;
};

/// Sets a directory entry at the receiving node: shard-slice updates after
/// a migration and forwarding hints left at the old host use the same
/// message. Idempotent: the update carries the absolute new value.
struct WireDirUpdate {
  using Reply = bool;
  std::uint64_t seq = 0;
  std::string name;
  std::uint64_t node = 0;

  friend bool operator==(const WireDirUpdate&,
                         const WireDirUpdate&) = default;
};

/// Asks a node process to stop. Fire-and-forget: the peer closes the
/// connection instead of replying.
struct WireShutdown {
  friend bool operator==(const WireShutdown&, const WireShutdown&) = default;
};

// --- replies -----------------------------------------------------------------

/// The reply frame answering a `Req`: the request's result.
template <Request Req>
struct WireReply {
  typename Req::Reply result;

  friend bool operator==(const WireReply&, const WireReply&) = default;
};

using WireInvokeReply = WireReply<WireInvoke>;
using WireInstallReply = WireReply<WireInstall>;
using WireEvictReply = WireReply<WireEvict>;
using WireDirLookupReply = WireReply<WireDirLookup>;
using WireDirUpdateReply = WireReply<WireDirUpdate>;

/// One decoded frame: correlation ID plus the typed payload.
struct Frame {
  using Payload =
      std::variant<WireInvoke, WireInstall, WireEvict, WireShutdown,
                   WireInvokeReply, WireInstallReply, WireEvictReply,
                   WireDirLookup, WireDirUpdate, WireDirLookupReply,
                   WireDirUpdateReply>;

  std::uint64_t corr = 0;
  Payload payload;

  [[nodiscard]] FrameType type() const;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Encodes a frame, length prefix included — the buffer can go onto a
/// socket as-is. The encoder does not enforce kMaxFramePayload; senders
/// check the encoded size (SendStatus::Oversized) and every receiver
/// rejects an overlong length prefix, so an oversized frame can never
/// cross the wire unnoticed.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Decodes one frame payload (the bytes *after* the u32 length prefix).
/// Returns nullopt on any malformation: short header, unknown version or
/// type, truncated body, overlong inner length, or trailing bytes.
[[nodiscard]] std::optional<Frame> decode_payload(
    std::span<const std::uint8_t> payload);

/// Reassembles frames from a TCP byte stream. recv() boundaries carry no
/// meaning on a stream socket, so feed() accepts arbitrary splits and
/// coalescings; next() hands out complete frames in order. A malformed
/// length or payload poisons the buffer permanently (error() turns true):
/// a byte stream that has lost framing cannot be resynchronised.
class FrameBuffer {
public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete frame, or nullopt if more bytes are needed (or the
  /// stream is poisoned — check error() to tell the cases apart).
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool error() const { return error_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

private:
  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted lazily
  bool error_ = false;
};

}  // namespace omig::transport
