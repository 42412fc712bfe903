#include "runtime/live_object.hpp"

#include <exception>

namespace omig::runtime {

LiveObject::LiveObject(std::string name, ObjectState state)
    : name_{std::move(name)}, state_{std::move(state)} {}

void LiveObject::register_method(const std::string& name, Method method) {
  methods_[name] = std::move(method);
}

InvokeResult LiveObject::call(const std::string& method,
                              const std::string& argument) {
  auto it = methods_.find(method);
  if (it == methods_.end()) {
    return InvokeResult{false, "no such method: " + method};
  }
  try {
    return InvokeResult{true, it->second(state_, argument)};
  } catch (const std::exception& e) {
    // The method runs on whichever thread delivered the call — the
    // caller's, or the event loop's — so its failure comes back as the
    // reply and never unwinds through the runtime.
    return InvokeResult{false, "method " + method + " failed: " + e.what()};
  }
}

}  // namespace omig::runtime
