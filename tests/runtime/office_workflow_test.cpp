// End-to-end live-runtime scenario in the paper's motivating domain
// (Section 1: office automation): three independently developed components
// — intake, billing, archive — cooperate on shared case files across four
// nodes. Exercises types, alliances, placement conflicts, visits and
// migration-under-load together.
//
// Parametrised over the transport backend: the whole suite runs once with
// in-process delivery (each node serves on the caller's thread) and once
// with every inter-node request marshalled through a wire frame and a
// localhost socket — the semantics must not depend on how the messages
// travel (docs/transport.md).
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "runtime/demo_types.hpp"
#include "runtime/live_system.hpp"

namespace omig::runtime {
namespace {

class OfficeWorkflow : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    LiveSystem::Options opts;
    opts.nodes = 4;
    opts.policy = migration::PolicyKind::Placement;
    opts.a_transitive_attachments = true;
    opts.transport = GetParam();
    sys = std::make_unique<LiveSystem>(opts);
    register_demo_types(*sys);
    sys->start();

    ASSERT_TRUE(
        sys->create("case-1", make_state("case-file", {{"log", ""}}), 0));
    ASSERT_TRUE(
        sys->create("case-2", make_state("case-file", {{"log", ""}}), 0));
    ASSERT_TRUE(
        sys->create("ledger", make_state("ledger", {{"total", "0"}}), 3));

    // Billing keeps the ledger with whichever case it processes — one
    // cooperation context *per case*: attaching both cases in a single
    // context would chain them through the shared ledger (A-transitivity
    // follows every edge of the named context).
    sys->attach("case-1", "ledger", "billing");
    sys->attach("case-2", "ledger", "billing-2");
  }

  std::unique_ptr<LiveSystem> sys;
};

TEST_P(OfficeWorkflow, ThreeComponentsCooperate) {
  // Intake (node 1) visits case-1, appends entries, lets it go home.
  auto intake = sys->visit("case-1", 1, "intake");
  ASSERT_TRUE(intake.granted);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sys->invoke_from(1, "case-1", "append", "intake").ok);
  }
  sys->end(intake);
  EXPECT_EQ(sys->location("case-1"), 0u);

  // Billing (node 2) moves case-1 *in the billing alliance*: the ledger
  // follows, case-2 does not.
  auto billing = sys->move("case-1", 2, "billing");
  ASSERT_TRUE(billing.granted);
  EXPECT_EQ(sys->location("case-1"), 2u);
  EXPECT_EQ(sys->location("ledger"), 2u);
  EXPECT_EQ(sys->location("case-2"), 0u);
  sys->invoke_from(2, "ledger", "bill", "");
  sys->invoke_from(2, "case-1", "append", "billed");

  // Archive (node 3) wants the same case mid-billing: transient placement
  // refuses, archive works remotely instead.
  auto archive = sys->move("case-1", 3, "archive");
  EXPECT_FALSE(archive.granted);
  ASSERT_TRUE(sys->invoke_from(3, "case-1", "append", "archived").ok);
  sys->end(archive);
  sys->end(billing);

  // After billing ends, archive can take it.
  auto retry = sys->move("case-1", 3, "archive");
  EXPECT_TRUE(retry.granted);
  EXPECT_EQ(sys->location("case-1"), 3u);
  sys->end(retry);

  // All state survived every linearisation round trip.
  EXPECT_EQ(sys->invoke("case-1", "entries", "").value, "7");
  EXPECT_EQ(sys->invoke("ledger", "total", "").value, "10");
  EXPECT_EQ(sys->refused_moves(), 1u);
  EXPECT_EQ(sys->send_rejections(), 0u);
}

TEST_P(OfficeWorkflow, ConcurrentComponentsNeverLoseWork) {
  constexpr int kRounds = 30;
  auto component = [&](std::size_t home, const char* tag,
                       const char* case_name) {
    for (int i = 0; i < kRounds; ++i) {
      auto token = sys->move(case_name, home, tag);
      sys->invoke_from(home, case_name, "append", tag);
      sys->end(token);
    }
  };
  std::thread intake{component, 1, "intake", "case-1"};
  std::thread billing{component, 2, "billing", "case-1"};
  std::thread archive{component, 3, "archive", "case-2"};
  intake.join();
  billing.join();
  archive.join();
  // Every append landed exactly once, refusals notwithstanding.
  EXPECT_EQ(sys->invoke("case-1", "entries", "").value,
            std::to_string(2 * kRounds));
  EXPECT_EQ(sys->invoke("case-2", "entries", "").value,
            std::to_string(kRounds));
}

TEST_P(OfficeWorkflow, FixPinsTheLedgerForAudit) {
  sys->fix("ledger");
  auto billing = sys->move("case-1", 2, "billing");
  ASSERT_TRUE(billing.granted);
  EXPECT_EQ(sys->location("case-1"), 2u);
  EXPECT_EQ(sys->location("ledger"), 3u);  // fixed: stayed for the audit
  sys->end(billing);
}

INSTANTIATE_TEST_SUITE_P(Backends, OfficeWorkflow,
                         ::testing::Values(TransportKind::InProc,
                                           TransportKind::AsyncTcp),
                         [](const auto& info) {
                           return info.param == TransportKind::InProc
                                      ? "InProc"
                                      : "AsyncTcp";
                         });

}  // namespace
}  // namespace omig::runtime
