// Live objects: behaviour over a linearisable property bag.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "runtime/object_state.hpp"

namespace omig::runtime {

/// An object hosted on a live node. Behaviour is a method table operating
/// on the object's own ObjectState; because all behaviour is reconstructed
/// from the type tag by a registered factory, the object can be linearised,
/// shipped to another node and rebuilt there (migration).
class LiveObject {
public:
  using Method =
      std::function<std::string(ObjectState& self, const std::string& arg)>;

  LiveObject(std::string name, ObjectState state);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& type() const { return state_.type; }
  [[nodiscard]] ObjectState& state() { return state_; }
  [[nodiscard]] const ObjectState& state() const { return state_; }

  /// Registers `method` under `name`; replaces an existing registration.
  void register_method(const std::string& name, Method method);

  /// Invokes a method; returns ok=false with an error text if it is
  /// unknown or throws.
  InvokeResult call(const std::string& method, const std::string& argument);

  /// Linearises the object for transfer (state copy).
  [[nodiscard]] ObjectState linearize() const { return state_; }
  /// Linearises an object that is about to be destroyed (an evict): its
  /// state moves out, and the object is left empty.
  [[nodiscard]] ObjectState release() && { return std::move(state_); }

private:
  std::string name_;
  ObjectState state_;
  std::unordered_map<std::string, Method> methods_;
};

/// Rebuilds a live object (with its method table) from linearised state.
using ObjectFactory =
    std::function<std::unique_ptr<LiveObject>(std::string name, ObjectState)>;

}  // namespace omig::runtime
