// Live-runtime demo: the same primitives on real threads. Three nodes
// host a shopping-cart service; two "applications" race move()
// blocks against the shared cart — once with the conventional policy
// (the loser's work is stolen mid-flight) and once with transient
// placement (the conflicting move is refused and falls back to remote
// invocation). State is linearised and rebuilt on every migration.
//
// Build & run:   ./build/examples/live_runtime_demo
#include <iostream>
#include <thread>

#include "runtime/live_system.hpp"

using namespace omig::runtime;

namespace {

ObjectFactory cart_factory() {
  return [](std::string name, ObjectState state) {
    auto obj = std::make_unique<LiveObject>(std::move(name), std::move(state));
    obj->register_method("add", [](ObjectState& self, const std::string& item) {
      self.fields["items"] += self.fields["items"].empty() ? item : "," + item;
      return self.fields["items"];
    });
    obj->register_method("list", [](ObjectState& self, const std::string&) {
      return self.fields["items"];
    });
    return obj;
  };
}

ObjectState cart_state() {
  ObjectState s;
  s.type = "cart";
  s.fields["items"] = "";
  return s;
}

void race(bool placement) {
  LiveSystem::Options opts;
  opts.nodes = 3;
  opts.policy = placement ? omig::migration::PolicyKind::Placement
                          : omig::migration::PolicyKind::Conventional;
  opts.remote_latency = std::chrono::microseconds{200};
  LiveSystem sys{opts};
  sys.register_type("cart", cart_factory());
  sys.start();
  sys.create("cart", cart_state(), 0);

  std::atomic<int> refused{0};
  auto app = [&](std::size_t home, const char* item) {
    for (int round = 0; round < 20; ++round) {
      auto token = sys.move("cart", home);
      if (!token.granted) ++refused;
      for (int i = 0; i < 5; ++i) sys.invoke_from(home, "cart", "add", item);
      sys.end(token);
    }
  };
  std::thread a{app, 1, "a"};
  std::thread b{app, 2, "b"};
  a.join();
  b.join();

  const std::string items = sys.invoke("cart", "list", "").value;
  const auto adds = 1 + std::count(items.begin(), items.end(), ',');
  std::cout << (placement ? "transient placement" : "conventional move")
            << ": adds=" << adds << " migrations=" << sys.migrations()
            << " refused-moves=" << sys.refused_moves()
            << " remote-invocations=" << sys.remote_invocations() << "\n";
}

}  // namespace

int main() {
  std::cout << "live runtime: two applications racing move() on a shared "
               "cart (200 adds each run)\n\n";
  race(/*placement=*/false);
  race(/*placement=*/true);
  std::cout << "\nBoth runs complete all 200 adds; placement does it with "
               "far fewer migrations — the simulator's Figure-8 story on "
               "real threads.\n";
  return 0;
}
