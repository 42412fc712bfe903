// Byte-level linearisation of live-object state.
//
// Section 3.1: proxies "trap, linearize and forward" — the live runtime
// does it for real: an evicted object's state is encoded into a length-
// prefixed byte stream and rebuilt at the destination node. The format is
// deliberately simple (little-endian u32 lengths) and strictly validated:
// decode never reads past the buffer and rejects trailing garbage.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "runtime/object_state.hpp"

namespace omig::runtime {

/// Encodes `state` as: u32 type-length, type bytes, u32 field-count, then
/// per field u32 key-length, key, u32 value-length, value.
std::vector<std::uint8_t> encode(const ObjectState& state);

/// Decodes a buffer produced by `encode`. Returns nullopt on any
/// malformation: truncation, overlong lengths, or trailing bytes.
std::optional<ObjectState> decode(std::span<const std::uint8_t> bytes);

}  // namespace omig::runtime
