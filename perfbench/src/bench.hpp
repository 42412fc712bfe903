// End-to-end benchmark of the migration runtime and the simulator.
//
// One process runs one named workload for a fixed wall-clock budget and
// prints one JSON record: the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), the correctness checks, and a machine
// record. perfbench/README.md lists every metric and why each workload
// exists; perfbench/run.py builds this binary and drives it.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/live_system.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two steady-clock readings.
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// User + system CPU time in a getrusage() reading, in µs.
inline double cpu_us(const rusage& u) {
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 +
           static_cast<double>(t.tv_usec);
  };
  return us(u.ru_utime) + us(u.ru_stime);
}

/// Voluntary + involuntary context switches in a getrusage() reading.
inline double ctx_switches(const rusage& u) {
  return static_cast<double>(u.ru_nvcsw + u.ru_nivcsw);
}

/// Nearest-rank quantile `q` of `samples` (sorted in place), or nullopt
/// when fewer than ten samples lie beyond it: a tail read from fewer
/// points than that is noise, not a measurement.
[[nodiscard]] std::optional<double> quantile(std::vector<double>& samples,
                                             double q);

// --- spans -----------------------------------------------------------------

/// The layer call a span wraps. Names are what the trace file shows.
enum class SpanKind : std::uint8_t {
  Burst,        ///< root: one burst, block open to end() return
  Move,         ///< LiveSystem::move
  Visit,        ///< LiveSystem::visit
  Invoke,       ///< LiveSystem::invoke_from
  End,          ///< LiveSystem::end
  Encode,       ///< transport::encode_frame
  Decode,       ///< transport::decode_payload
  SerdeEncode,  ///< runtime::encode
  SerdeDecode,  ///< runtime::decode
  SendInvoke,   ///< AsyncTcpTransport::send_invoke until the reply
  StoreAppend,  ///< DurableStore::migration + checkpoint
  SimPoint,     ///< core::run_experiment for one grid point
};

[[nodiscard]] const char* to_string(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::Burst;
  std::uint32_t lane = 0;     ///< recording thread
  std::uint64_t id = 0;       ///< unique within the run
  std::uint64_t parent = 0;   ///< 0 = root
  std::int64_t start_ns = 0;  ///< since the run's epoch
  std::int64_t end_ns = 0;

  [[nodiscard]] double us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// The samples of one time window. Every sample is counted; a uniform
/// reservoir of at most kReservoir of them is kept, so the benchmark's own
/// memory does not grow with throughput and move peak_rss_mb.
struct Window {
  std::uint64_t seen = 0;
  std::vector<double> kept;
};
inline constexpr std::size_t kReservoir = 4096;

/// Samples bucketed by the time window they ended in.
using Windows = std::vector<Window>;

/// All of `samples` as one window.
[[nodiscard]] inline Windows as_window(std::vector<double> samples) {
  Windows one(1);
  one[0].seen = samples.size();
  one[0].kept = std::move(samples);
  return one;
}

/// Windows per measured phase: rates and quantiles are taken per window
/// (or group of windows) and the median is reported, which a few seconds
/// of interference on a shared machine do not move.
inline constexpr std::size_t kWindows = 10;
/// Quantiles are taken over kGroups groups of kWindows / kGroups windows,
/// so that each group holds enough samples for a p99.
inline constexpr std::size_t kGroups = 5;

/// One caller thread's samples, tallies and (when tracing) spans. Each
/// thread owns its lane; lanes are merged only after the threads join.
struct Lane {
  std::uint32_t index = 0;
  bool tracing = false;
  Clock::time_point epoch{};

  /// Burst and invoke wall times in µs, by the window they ended in (see
  /// start_windows()).
  Windows burst_us;
  Windows invoke_us;
  std::vector<Span> spans;

  std::uint64_t bursts = 0;
  std::uint64_t invokes = 0;
  std::uint64_t blocks = 0;    ///< move()/visit() calls
  std::uint64_t refused = 0;   ///< blocks not granted
  std::uint64_t failures = 0;  ///< failed invokes and failed checks
  std::uint64_t adds = 0;      ///< successful add() calls

  /// Splits [start, start + length) into kWindows windows. Samples ending
  /// outside them (no windows set, or past the end) are not kept.
  void start_windows(Clock::time_point start, Clock::duration length);
  /// Adds `us` to the window `end` falls in.
  void record(Windows& into, Clock::time_point end, double us);
  /// Counts a burst and keeps its wall time.
  void record_burst(Clock::time_point start, Clock::time_point end) {
    ++bursts;
    record(burst_us, end, static_cast<double>(ns_between(start, end)) / 1e3);
  }
  void record_invoke(Clock::time_point start, Clock::time_point end) {
    record(invoke_us, end, static_cast<double>(ns_between(start, end)) / 1e3);
  }

  /// Span id unique across lanes (the lane index is in the high bits).
  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(index + 1) << 40) | ++id_seq;
  }
  /// Records a span when tracing; returns its id (0 when not tracing).
  std::uint64_t span(SpanKind kind, std::uint64_t parent,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t id = 0);

private:
  Clock::time_point window_start_{};
  std::int64_t window_ns_ = 0;
  std::uint64_t reservoir_rng_ = 0;  ///< SplitMix64 state, per lane
  std::uint64_t id_seq = 0;
};

/// The lanes' windows of `field`, merged window by window (the lanes run
/// the same workload, so their reservoirs are pooled unweighted).
[[nodiscard]] Windows merge_windows(const std::vector<Lane>& lanes,
                                    Windows Lane::*field);

/// Median over the windows of (samples seen in the window) / window_s.
[[nodiscard]] double median_rate(const Windows& windows, double window_s);

/// Quantile `q` of the kept samples of each of kGroups groups of windows,
/// then the median of those. With fewer than kGroups windows, or when a
/// group has fewer than ten samples beyond its quantile, it is the
/// quantile of all kept samples together; nullopt when even that has
/// fewer than ten beyond it.
[[nodiscard]] std::optional<double> windowed_quantile(const Windows& windows,
                                                      double q);

/// The traced run's traced part is at most this long (the rest of
/// --seconds runs untraced), which bounds the span file at a few tens of
/// MB on the busiest workload.
inline constexpr double kMaxTracedSeconds = 5.0;

/// Peak resident set of this process image in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Writes every lane's spans as Chrome trace-event JSON (load it in
/// Perfetto or chrome://tracing). Returns false on an I/O error.
bool write_spans(const std::filesystem::path& path,
                 const std::vector<Lane>& lanes);

// --- scenario replay -------------------------------------------------------

/// One traffic source's burst stream, drawn exactly as
/// scenario::run_live_scenario draws it: per-source hashed Rng, arrival
/// gap first, then the burst.
class SourceStream {
public:
  SourceStream(const omig::scenario::Scenario& scenario, std::size_t source,
               std::uint64_t seed, std::size_t nodes);

  const omig::scenario::Burst& next();
  /// Node the current burst issues from.
  [[nodiscard]] std::size_t origin() const;

private:
  const omig::scenario::Scenario* scenario_;
  std::size_t source_;
  std::size_t nodes_;
  std::size_t home_;
  omig::sim::Rng rng_;
  omig::scenario::Burst burst_;
};

/// Issues one burst on `system` with the calls run_live_scenario makes
/// (move/visit, then get/add invocations, then end), timing each call
/// into `lane`.
void run_burst(omig::runtime::LiveSystem& system,
               const omig::scenario::Population& population,
               const omig::scenario::Burst& burst, std::size_t origin,
               Lane& lane);

/// Scenario options of the two scenario workloads (4 nodes, 8 sources,
/// 48 objects, everything else at the scenario defaults).
[[nodiscard]] omig::scenario::ScenarioOptions scenario_options(
    const std::string& name);

// --- result record ---------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::map<std::string, Metric> metrics;
  /// Correctness checks by name: (attempted, failed).
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> checks;
  std::uint64_t ops = 0;         ///< operations attempted
  std::uint64_t failed_ops = 0;  ///< operations that failed
  /// Extra numbers for the record (sample counts, withheld quantiles).
  std::map<std::string, double> detail;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Sets `name` to windowed_quantile(`windows`, `q`), or to 0 with a
  /// note when too few samples lie beyond it.
  void set_quantile(const std::string& name, const Windows& windows,
                    double q, const std::string& unit);
  void check(const std::string& name, bool ok) {
    auto& [attempted, failed] = checks[name];
    ++attempted;
    if (!ok) ++failed;
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out;  ///< scratch + span output directory
  unsigned threads = 4;       ///< closed-loop callers
  bool probes = true;         ///< traced live run: also run run_probes()
};

/// Live workloads: social-visit, cache-rpc, durable-move.
Result run_live(const RunOptions& options);
/// sim-fig16.
Result run_sim(const RunOptions& options);

/// Layer probes of the traced run: codec, serde, transport round trip and
/// store appends, on the workload's own frames and object state.
void run_probes(const RunOptions& options,
                const omig::runtime::ObjectState& state,
                const std::string& object, Result& result,
                std::vector<Lane>& lanes);

}  // namespace perfbench
