// Values the live runtime ships between nodes.
//
// The live runtime (src/runtime/) is the beyond-paper counterpart of the
// simulator: the same primitives (invoke, migrate, move/end with placement,
// attachments) running on real threads with real mailboxes. Objects are
// linearised into an ObjectState for transfer, exactly as Section 3.1
// describes proxies linearising calls and objects.
#pragma once

#include <string>
#include <unordered_map>

namespace omig::runtime {

/// Linearised object: its type tag plus a string property bag. The type tag
/// selects the factory that rebuilds behaviour at the destination node.
struct ObjectState {
  std::string type;
  std::unordered_map<std::string, std::string> fields;

  friend bool operator==(const ObjectState&, const ObjectState&) = default;
};

/// Result of an invocation: either a payload or an error description.
struct InvokeResult {
  bool ok = false;
  std::string value;  ///< payload on success, error text on failure

  friend bool operator==(const InvokeResult&, const InvokeResult&) = default;
};

}  // namespace omig::runtime
