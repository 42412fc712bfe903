// Layer probes of the traced run. Each probe drives one layer's public
// functions directly, on the workload's own object state and frames, with
// a span around every call.
#include <atomic>
#include <future>
#include <span>
#include <thread>

#include "bench.hpp"
#include "runtime/demo_types.hpp"
#include "runtime/live_node.hpp"
#include "runtime/serde.hpp"
#include "store/store.hpp"
#include "transport/async_tcp_transport.hpp"
#include "transport/bridge.hpp"
#include "transport/node_server.hpp"
#include "transport/wire.hpp"

namespace perfbench {
namespace {

namespace tp = omig::transport;

constexpr int kCodecRounds = 5000;
constexpr int kRttCallers = 4;
constexpr int kRttCallsPerCaller = 2500;
constexpr double kStoreSeconds = 0.6;
constexpr int kStoreMaxPairs = 5000;
/// Sender id of the probes' requests: no node of the probe cluster.
constexpr std::size_t kProbeSender = 4096;

/// `count` traced lanes numbered after the ones in `lanes`. A probe fills
/// its own lanes and appends them to `lanes` when done, so no pointer into
/// `lanes` is held while it grows.
std::vector<Lane> probe_lanes(const std::vector<Lane>& lanes,
                              std::size_t count, Clock::time_point epoch) {
  std::vector<Lane> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i].index = static_cast<std::uint32_t>(lanes.size() + i);
    out[i].tracing = true;
    out[i].epoch = epoch;
  }
  return out;
}

void append(std::vector<Lane>& lanes, std::vector<Lane>& done) {
  for (Lane& lane : done) lanes.push_back(std::move(lane));
}

/// encode_frame + decode_payload on the frames this workload sends.
void codec_probe(const omig::runtime::ObjectState& state,
                 const std::string& object, Lane& lane, Result& r) {
  std::vector<tp::Frame> frames;
  frames.push_back(tp::Frame{1, tp::WireInvoke{1, object, "get", ""}});
  frames.push_back(tp::Frame{2, tp::WireInvoke{2, object, "add", "1"}});
  frames.push_back(tp::Frame{3, tp::WireInstall{3, object, state}});
  std::vector<double> ns;
  ns.reserve(kCodecRounds);
  bool ok = true;
  for (int i = 0; i < kCodecRounds; ++i) {
    const tp::Frame& frame =
        frames[static_cast<std::size_t>(i) % frames.size()];
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> bytes = tp::encode_frame(frame);
    const auto t1 = Clock::now();
    const std::optional<tp::Frame> decoded =
        tp::decode_payload(std::span<const std::uint8_t>(bytes).subspan(4));
    const auto t2 = Clock::now();
    lane.span(SpanKind::Encode, 0, t0, t1);
    lane.span(SpanKind::Decode, 0, t1, t2);
    ns.push_back(static_cast<double>(ns_between(t0, t2)));
    ok = ok && decoded && *decoded == frame;
  }
  r.check("codec_roundtrip", ok);
  r.set_quantile("transport.codec_ns", as_window(ns), 0.5, "ns");
}

/// runtime::encode + runtime::decode of the workload's object state.
void serde_probe(const omig::runtime::ObjectState& state, Lane& lane,
                 Result& r) {
  std::vector<double> ns;
  ns.reserve(kCodecRounds);
  bool ok = true;
  for (int i = 0; i < kCodecRounds; ++i) {
    const auto t0 = Clock::now();
    const std::vector<std::uint8_t> bytes = omig::runtime::encode(state);
    const auto t1 = Clock::now();
    const std::optional<omig::runtime::ObjectState> decoded =
        omig::runtime::decode(bytes);
    const auto t2 = Clock::now();
    lane.span(SpanKind::SerdeEncode, 0, t0, t1);
    lane.span(SpanKind::SerdeDecode, 0, t1, t2);
    ns.push_back(static_cast<double>(ns_between(t0, t2)));
    ok = ok && decoded && *decoded == state;
  }
  r.check("serde_roundtrip", ok);
  r.set_quantile("serde.roundtrip_ns", as_window(ns), 0.5, "ns");
}

/// AsyncTcpTransport::send_invoke to a NodeServer-hosted LiveNode, from
/// kRttCallers closed-loop callers.
void rtt_probe(const std::string& object, std::vector<Lane>& lanes,
               Clock::time_point epoch, Result& r) {
  auto factories = omig::runtime::demo_factories();
  omig::runtime::LiveNode node(0, &factories);
  node.start();
  tp::NodeServer server([&node](tp::Frame frame) {
    return tp::serve_on_mailbox(node.mailbox(), std::move(frame));
  });
  const std::uint16_t port = server.start();
  std::atomic<std::uint64_t> seq{1};
  std::atomic<std::uint64_t> failures{0};
  std::vector<Lane> mine = probe_lanes(lanes, kRttCallers, epoch);
  std::vector<std::vector<double>> per_caller(kRttCallers);
  {
    tp::AsyncTcpTransport::Options options;
    options.peers = {tp::Peer{"127.0.0.1", port}};
    tp::AsyncTcpTransport transport(std::move(options), nullptr);
    std::future<bool> installed;
    const bool sent =
        port != 0 &&
        transport.send_install(
            kProbeSender, 0,
            tp::WireInstall{seq++, object,
                            omig::runtime::make_state("counter",
                                                      {{"count", "0"}})},
            installed) == tp::SendStatus::Ok;
    r.check("rtt_install", sent && installed.get());

    if (sent) {
      std::vector<std::thread> callers;
      for (int c = 0; c < kRttCallers; ++c) {
        callers.emplace_back([&, lane = &mine[c], us = &per_caller[c]] {
          us->reserve(kRttCallsPerCaller);
          for (int i = 0; i < kRttCallsPerCaller; ++i) {
            std::future<omig::runtime::InvokeResult> reply;
            const auto t0 = Clock::now();
            const tp::SendStatus status = transport.send_invoke(
                kProbeSender, 0, tp::WireInvoke{seq++, object, "add", "1"},
                reply);
            bool ok = status == tp::SendStatus::Ok;
            try {
              ok = ok && reply.get().ok;
            } catch (const std::future_error&) {
              ok = false;
            }
            const auto t1 = Clock::now();
            lane->span(SpanKind::SendInvoke, 0, t0, t1);
            us->push_back(static_cast<double>(ns_between(t0, t1)) / 1e3);
            if (!ok) ++failures;
          }
        });
      }
      for (std::thread& t : callers) t.join();
      std::future<omig::runtime::InvokeResult> total;
      const bool asked =
          transport.send_invoke(kProbeSender, 0,
                                tp::WireInvoke{seq++, object, "get", ""},
                                total) == tp::SendStatus::Ok;
      r.check("rtt_counter",
              asked && total.get().value ==
                           std::to_string(kRttCallers * kRttCallsPerCaller));
    }
  }
  append(lanes, mine);
  server.stop();
  node.stop();
  r.check("rtt_replies", failures.load() == 0);
  std::vector<double> rtt_us;
  for (const auto& c : per_caller) {
    rtt_us.insert(rtt_us.end(), c.begin(), c.end());
  }
  r.set_quantile("transport.rtt_us.p50", as_window(rtt_us), 0.50, "us");
  r.set_quantile("transport.rtt_us.p99", as_window(rtt_us), 0.99, "us");
}

/// DurableStore::migration + checkpoint pairs, fsynced, on the data-dir
/// filesystem, from `appenders` threads at once.
void store_probe(const std::filesystem::path& dir,
                 const omig::runtime::ObjectState& state, int appenders,
                 std::vector<Lane>& lanes, Clock::time_point epoch,
                 Result& r) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  omig::store::DurableStore store;
  omig::store::DurableStore::OpenOptions options;
  options.dir = dir.string();
  options.compact_every = 256;  // LiveSystem's store_compact_every default
  const bool opened = store.open(options);
  r.check("store_open", opened);
  const std::vector<std::uint8_t> blob = omig::runtime::encode(state);
  std::vector<Lane> mine =
      probe_lanes(lanes, static_cast<std::size_t>(appenders), epoch);
  std::vector<std::vector<double>> per_appender(
      static_cast<std::size_t>(appenders));
  std::atomic<std::uint64_t> failures{0};
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kStoreSeconds));
  std::vector<std::thread> threads;
  for (int a = 0; opened && a < appenders; ++a) {
    const auto slot = static_cast<std::size_t>(a);
    threads.emplace_back([&, a, lane = &mine[slot], us = &per_appender[slot]] {
      const std::string name = "probe-" + std::to_string(a);
      std::uint64_t node = 0;
      for (int i = 0; i < kStoreMaxPairs && Clock::now() < deadline; ++i) {
        const std::uint64_t next = (node + 1) % 4;
        const auto t0 = Clock::now();
        const auto moved = store.migration(name, node, next);
        const auto saved =
            store.checkpoint(name, next, static_cast<std::uint64_t>(i), blob);
        const auto t1 = Clock::now();
        lane->span(SpanKind::StoreAppend, 0, t0, t1);
        us->push_back(static_cast<double>(ns_between(t0, t1)) / 1e3);
        if (!moved.durable || !saved.durable) ++failures;
        node = next;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.check("store_appends_durable", failures.load() == 0);
  std::vector<double> us;
  for (const auto& a : per_appender) us.insert(us.end(), a.begin(), a.end());
  append(lanes, mine);
  const std::string base = "store.append_us.t" + std::to_string(appenders);
  r.set_quantile(base + ".p50", as_window(us), 0.50, "us");
  r.set_quantile(base + ".p99", as_window(us), 0.99, "us");
  std::filesystem::remove_all(dir, ignored);
}

}  // namespace

void run_probes(const RunOptions& options,
                const omig::runtime::ObjectState& state,
                const std::string& object, Result& result,
                std::vector<Lane>& lanes) {
  const Clock::time_point epoch =
      lanes.empty() ? Clock::now() : lanes.front().epoch;
  std::vector<Lane> codec = probe_lanes(lanes, 2, epoch);
  codec_probe(state, object, codec[0], result);
  serde_probe(state, codec[1], result);
  append(lanes, codec);
  rtt_probe(object, lanes, epoch, result);
  const auto dir = options.out / "data" / "store-probe";
  store_probe(dir, state, 1, lanes, epoch, result);
  store_probe(dir, state, 4, lanes, epoch, result);
}

}  // namespace perfbench
