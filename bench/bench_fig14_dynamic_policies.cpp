// Figure 14: conservative placement vs the two dynamic strategies
// ("comparing the nodes", "comparing and reinstantiation") on a crowded
// 3-node system (parameters of Figure 15). Paper conclusion: the dynamic
// policies bring only marginal gains — and that is *before* charging their
// bookkeeping overhead, which is neglected here exactly as in the paper.
//
// Re-judged with modern telemetry (docs/policies.md): the grid also runs
// the EMA-driven adaptive kinds, whose bookkeeping *is* charged — the
// locality tracker rides the real invocation path (its overhead per block
// is below bench_policy's resolution; docs/policies.md) — so "not worth
// the overhead" finally meets a policy that pays its overhead up front.
// Verdict in EXPERIMENTS.md.
#include "bench_common.hpp"

#include "core/plot.hpp"

using namespace omig;
using migration::PolicyKind;

int main() {
  bench::print_header(
      "Figure 14 — Exploiting dynamic information",
      "D=3 S1=3 S2=0 M=6 N~exp(8) t_i~exp(1) t_m~exp(30); x = #clients");

  std::vector<core::SweepVariant> variants{
      {"conservative-place",
       [](double x) {
         return core::fig14_config(static_cast<int>(x),
                                   PolicyKind::Placement);
       }},
      {"comparing-the-nodes",
       [](double x) {
         return core::fig14_config(static_cast<int>(x),
                                   PolicyKind::CompareNodes);
       }},
      {"comparing+reinstantiation",
       [](double x) {
         return core::fig14_config(static_cast<int>(x),
                                   PolicyKind::CompareReinstantiate);
       }},
      {"adaptive",
       [](double x) {
         return core::fig14_config(static_cast<int>(x),
                                   PolicyKind::Adaptive);
       }},
      {"adaptive-load",
       [](double x) {
         return core::fig14_config(static_cast<int>(x),
                                   PolicyKind::AdaptiveLoad);
       }},
  };

  const auto xs = bench::client_axis(25, bench::env_int("OMIG_POINTS", 13));
  const auto points = core::run_sweep(xs, variants, bench::sweep_options());
  auto table = core::sweep_table("clients", variants, points,
                                 core::Metric::TotalPerCall);
  std::cout << core::to_string(core::Metric::TotalPerCall) << "\n\n"
            << table.to_text() << '\n'
            << core::plot_sweep(variants, points,
                                core::Metric::TotalPerCall)
            << "\ncsv:\n" << table.to_csv();
  return 0;
}
