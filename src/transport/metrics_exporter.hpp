// Prometheus scrape endpoint over the transport's own TCP plumbing.
//
// Lives in transport (not obs) because obs sits below transport in the
// layering — transport instruments itself against the registry, so the
// registry cannot link back up to the sockets. The server side is a
// deliberately tiny HTTP/1.0 responder: read until the blank line, answer
// any GET with the full text-format exposition, close. That is exactly
// what `curl` and a Prometheus scraper need, and nothing more. A request
// that reaches 8 KiB without its blank line is not a scrape; its
// connection is closed unanswered.
//
// Rendering the exposition never blocks, so — unlike the node frame
// server's handlers — every scrape runs entirely as one coroutine on the
// event loop, and no thread is started per scrape. Accepting, the loop
// and the teardown are the shared Listener's, as for NodeServer.
#pragma once

#include <memory>

#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "transport/listener.hpp"

namespace omig::transport {

/// A Listener that answers every connection with one scrape; start(),
/// stop(), running() and port() are the Listener's.
class MetricsExporter : private Listener {
public:
  /// Serves `registry` (usually MetricsRegistry::global()); the registry
  /// must outlive the exporter. `loop` = nullptr: own a private loop per
  /// start() cycle; otherwise scrape I/O shares the given loop, which
  /// must outlive the exporter and keep running across stop().
  explicit MetricsExporter(obs::MetricsRegistry& registry,
                           net::EventLoop* loop = nullptr);
  /// Stops here, not in ~Listener: the scrapes refer to this object.
  ~MetricsExporter() { stop(); }
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  using Listener::port;
  using Listener::running;
  using Listener::start;
  using Listener::stop;

private:
  static sim::Task serve_task(MetricsExporter* e, std::shared_ptr<Conn> conn);

  obs::MetricsRegistry& registry_;
};

}  // namespace omig::transport
