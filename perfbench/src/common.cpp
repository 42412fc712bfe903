// Sample quantiles, spans, and the scenario burst replay shared by the
// workloads and the self-test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "sim/random.hpp"

namespace perfbench {

using omig::scenario::Burst;
using omig::scenario::kNone;

std::optional<double> quantile(std::vector<double>& samples, double q) {
  if (samples.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < 10) return std::nullopt;
  return samples[index];
}

Windows merge_windows(const std::vector<Lane>& lanes, Windows Lane::*field) {
  Windows all;
  for (const Lane& lane : lanes) {
    const Windows& mine = lane.*field;
    if (all.size() < mine.size()) all.resize(mine.size());
    for (std::size_t w = 0; w < mine.size(); ++w) {
      all[w].seen += mine[w].seen;
      all[w].kept.insert(all[w].kept.end(), mine[w].kept.begin(),
                         mine[w].kept.end());
    }
  }
  return all;
}

double median_rate(const Windows& windows, double window_s) {
  if (windows.empty() || window_s <= 0.0) return 0.0;
  std::vector<double> rates;
  for (const Window& w : windows) {
    rates.push_back(static_cast<double>(w.seen) / window_s);
  }
  std::sort(rates.begin(), rates.end());
  const std::size_t n = rates.size();
  return n % 2 == 1 ? rates[n / 2] : (rates[n / 2 - 1] + rates[n / 2]) / 2.0;
}

std::optional<double> windowed_quantile(const Windows& windows, double q) {
  if (windows.size() >= kGroups) {
    std::vector<double> per_group;
    for (std::size_t g = 0; g < kGroups; ++g) {
      std::vector<double> samples;
      for (std::size_t w = g * windows.size() / kGroups;
           w < (g + 1) * windows.size() / kGroups; ++w) {
        samples.insert(samples.end(), windows[w].kept.begin(),
                       windows[w].kept.end());
      }
      const std::optional<double> v = quantile(samples, q);
      if (!v) break;
      per_group.push_back(*v);
    }
    if (per_group.size() == kGroups) {
      std::sort(per_group.begin(), per_group.end());
      return per_group[kGroups / 2];
    }
  }
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), w.kept.begin(), w.kept.end());
  }
  return quantile(all, q);
}

void Lane::start_windows(Clock::time_point start, Clock::duration length) {
  window_start_ = start;
  window_ns_ = ns_between(start, start + length / kWindows);
  reservoir_rng_ = index;
  burst_us.assign(kWindows, {});
  invoke_us.assign(kWindows, {});
}

void Lane::record(Windows& into, Clock::time_point end, double us) {
  if (window_ns_ <= 0 || end < window_start_) return;
  const auto w =
      static_cast<std::size_t>(ns_between(window_start_, end) / window_ns_);
  if (w >= into.size()) return;
  Window& window = into[w];
  ++window.seen;
  if (window.kept.size() < kReservoir) {
    window.kept.push_back(us);
    return;
  }
  // Reservoir sampling (Algorithm R): keep this sample with probability
  // kReservoir / seen, in place of a uniformly chosen kept one.
  omig::sim::SplitMix64 rng{reservoir_rng_};
  reservoir_rng_ = rng.next();
  const std::uint64_t slot = reservoir_rng_ % window.seen;
  if (slot < kReservoir) window.kept[slot] = us;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image this process exec'd from.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::Burst: return "burst";
    case SpanKind::Move: return "runtime.move";
    case SpanKind::Visit: return "runtime.visit";
    case SpanKind::Invoke: return "runtime.invoke";
    case SpanKind::End: return "runtime.end";
    case SpanKind::Encode: return "transport.encode_frame";
    case SpanKind::Decode: return "transport.decode_payload";
    case SpanKind::SerdeEncode: return "serde.encode";
    case SpanKind::SerdeDecode: return "serde.decode";
    case SpanKind::SendInvoke: return "transport.send_invoke";
    case SpanKind::StoreAppend: return "store.append";
    case SpanKind::SimPoint: return "core.run_experiment";
  }
  return "?";
}

std::uint64_t Lane::span(SpanKind kind, std::uint64_t parent,
                         Clock::time_point start, Clock::time_point end,
                         std::uint64_t id) {
  if (!tracing) return 0;
  if (id == 0) id = next_id();
  spans.push_back(Span{kind, index, id, parent, ns_between(epoch, start),
                       ns_between(epoch, end)});
  return id;
}

bool write_spans(const std::filesystem::path& path,
                 const std::vector<Lane>& lanes) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  char line[256];
  for (const Lane& lane : lanes) {
    for (const Span& s : lane.spans) {
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu}}",
                    first ? "" : ",\n", to_string(s.kind), s.lane,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

SourceStream::SourceStream(const omig::scenario::Scenario& scenario,
                           std::size_t source, std::uint64_t seed,
                           std::size_t nodes)
    : scenario_(&scenario),
      source_(source),
      nodes_(nodes),
      home_(scenario.source_node(source) % nodes),
      rng_(omig::scenario::source_stream(seed, scenario.name(), source), 0) {}

const Burst& SourceStream::next() {
  (void)scenario_->next_arrival(source_, rng_);
  scenario_->next_burst(source_, rng_, burst_);
  return burst_;
}

std::size_t SourceStream::origin() const {
  return (burst_.origin != kNone ? burst_.origin : home_) % nodes_;
}

void run_burst(omig::runtime::LiveSystem& system,
               const omig::scenario::Population& population,
               const Burst& burst, std::size_t origin, Lane& lane) {
  const std::uint64_t root = lane.tracing ? lane.next_id() : 0;
  const auto burst_start = Clock::now();
  omig::runtime::LiveSystem::MoveToken token;
  const bool has_block = burst.target != kNone;
  if (has_block) {
    const std::string& target = population.objects[burst.target].name;
    const std::string alliance =
        burst.alliance != kNone ? population.alliances[burst.alliance] : "";
    const auto t0 = Clock::now();
    token = burst.visit ? system.visit(target, origin, alliance)
                        : system.move(target, origin, alliance);
    lane.span(burst.visit ? SpanKind::Visit : SpanKind::Move, root, t0,
              Clock::now());
    ++lane.blocks;
    if (!token.granted) ++lane.refused;
  }
  for (const Burst::Call& call : burst.calls) {
    const std::string& object = population.objects[call.object].name;
    const auto t0 = Clock::now();
    const omig::runtime::InvokeResult result =
        call.read ? system.invoke_from(origin, object, "get", "")
                  : system.invoke_from(origin, object, "add", "1");
    const auto t1 = Clock::now();
    lane.record_invoke(t0, t1);
    lane.span(SpanKind::Invoke, root, t0, t1);
    ++lane.invokes;
    if (!result.ok) {
      ++lane.failures;
    } else if (!call.read) {
      ++lane.adds;
    }
  }
  if (has_block) {
    const auto t0 = Clock::now();
    system.end(token);
    lane.span(SpanKind::End, root, t0, Clock::now());
  }
  const auto burst_end = Clock::now();
  lane.record_burst(burst_start, burst_end);
  lane.span(SpanKind::Burst, 0, burst_start, burst_end, root);
}

omig::scenario::ScenarioOptions scenario_options(const std::string& name) {
  omig::scenario::ScenarioOptions options;
  options.name = name;
  options.nodes = 4;
  options.sources = 8;
  options.objects = 48;
  return options;
}

void Result::set_quantile(const std::string& name, const Windows& windows,
                          double q, const std::string& unit) {
  std::uint64_t samples = 0;
  for (const Window& w : windows) samples += w.seen;
  detail[name + ".samples"] = static_cast<double>(samples);
  const std::optional<double> value = windowed_quantile(windows, q);
  if (!value) {
    notes.push_back(name + " withheld: fewer than ten of " +
                    std::to_string(samples) +
                    " samples beyond it (reported as 0)");
  }
  set(name, value.value_or(0.0), unit);
}

}  // namespace perfbench
