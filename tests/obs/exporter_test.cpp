// Prometheus text-format golden test and an end-to-end scrape of the
// HTTP exporter over a real loopback socket.
#include "transport/metrics_exporter.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <string>

#include "obs/metrics.hpp"
#include "transport/tcp.hpp"

namespace omig::transport {
namespace {

/// One HTTP GET against 127.0.0.1:`port`, read to EOF.
std::string scrape(std::uint16_t port, const std::string& path = "/metrics") {
  const int fd = tcp_connect("127.0.0.1", port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_TRUE(tcp_send_all(
      fd, reinterpret_cast<const std::uint8_t*>(request.data()),
      request.size()));
  std::string response;
  std::uint8_t buffer[4096];
  for (;;) {
    const long n = tcp_recv_some(fd, buffer, sizeof buffer);
    if (n <= 0) break;
    response.append(reinterpret_cast<const char*>(buffer),
                    static_cast<std::size_t>(n));
  }
  tcp_close(fd);
  return response;
}

TEST(PrometheusExporter, GoldenTextFormat) {
  obs::MetricsRegistry reg;
  reg.counter("omig_calls_total", "Calls by kind", {{"kind", "local"}})
      .inc(7);
  reg.counter("omig_calls_total", "Calls by kind", {{"kind", "remote"}})
      .inc(2);
  reg.gauge("omig_hosted_objects", "Objects hosted").set(3);
  obs::Histogram& h = reg.histogram("omig_rtt_us", "Round trip");
  h.record(1);    // bucket le=1
  h.record(3);    // bucket le=4
  h.record(900);  // bucket le=1024

  EXPECT_EQ(reg.to_prometheus(),
            "# HELP omig_calls_total Calls by kind\n"
            "# TYPE omig_calls_total counter\n"
            "omig_calls_total{kind=\"local\"} 7\n"
            "omig_calls_total{kind=\"remote\"} 2\n"
            "# HELP omig_hosted_objects Objects hosted\n"
            "# TYPE omig_hosted_objects gauge\n"
            "omig_hosted_objects 3\n"
            "# HELP omig_rtt_us Round trip\n"
            "# TYPE omig_rtt_us histogram\n"
            "omig_rtt_us_bucket{le=\"1\"} 1\n"
            "omig_rtt_us_bucket{le=\"2\"} 1\n"
            "omig_rtt_us_bucket{le=\"4\"} 2\n"
            "omig_rtt_us_bucket{le=\"8\"} 2\n"
            "omig_rtt_us_bucket{le=\"16\"} 2\n"
            "omig_rtt_us_bucket{le=\"32\"} 2\n"
            "omig_rtt_us_bucket{le=\"64\"} 2\n"
            "omig_rtt_us_bucket{le=\"128\"} 2\n"
            "omig_rtt_us_bucket{le=\"256\"} 2\n"
            "omig_rtt_us_bucket{le=\"512\"} 2\n"
            "omig_rtt_us_bucket{le=\"1024\"} 3\n"
            "omig_rtt_us_bucket{le=\"+Inf\"} 3\n"
            "omig_rtt_us_sum 904\n"
            "omig_rtt_us_count 3\n");
}

TEST(PrometheusExporter, LabelValuesAreEscaped) {
  obs::MetricsRegistry reg;
  reg.counter("omig_x_total", "h", {{"path", "a\"b\\c"}}).inc();
  EXPECT_NE(reg.to_prometheus().find(
                "omig_x_total{path=\"a\\\"b\\\\c\"} 1\n"),
            std::string::npos);
}

TEST(PrometheusExporter, ServesScrapesOverTcp) {
  obs::MetricsRegistry reg;
  reg.counter("omig_scrape_total", "Scrape target").inc(42);
  MetricsExporter exporter{reg};
  const std::uint16_t port = exporter.start();
  ASSERT_NE(port, 0);
  EXPECT_TRUE(exporter.running());
  EXPECT_EQ(exporter.port(), port);

  const std::string response = scrape(port);
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("omig_scrape_total 42\n"), std::string::npos);

  // A second scrape sees updated values — the exporter reads live state.
  reg.counter("omig_scrape_total", "Scrape target").inc();
  EXPECT_NE(scrape(port).find("omig_scrape_total 43\n"), std::string::npos);

  exporter.stop();
  EXPECT_FALSE(exporter.running());
  exporter.stop();  // idempotent
}

TEST(PrometheusExporter, AnyPathAnswersWithMetrics) {
  // Prometheus scrapers default to /metrics, but the responder serves the
  // registry on every path — there is nothing else to route to.
  obs::MetricsRegistry reg;
  reg.counter("omig_y_total", "h").inc(5);
  MetricsExporter exporter{reg};
  const std::uint16_t port = exporter.start();
  ASSERT_NE(port, 0);
  EXPECT_NE(scrape(port, "/").find("omig_y_total 5\n"), std::string::npos);
  exporter.stop();
}

TEST(PrometheusExporter, OversizedRequestIsClosedUnanswered) {
  // 8 KiB or more without the blank line is not a scrape: the connection
  // closes without a response (a reset is fine; metrics bytes are not).
  obs::MetricsRegistry reg;
  reg.counter("omig_z_total", "h").inc();
  MetricsExporter exporter{reg};
  const std::uint16_t port = exporter.start();
  ASSERT_NE(port, 0);
  for (const std::size_t size : {9000u, 20000u}) {
    const int fd = tcp_connect("127.0.0.1", port);
    ASSERT_GE(fd, 0);
    timeval limit{2, 0};  // a connection left open fails, not hangs
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit),
              0);
    const std::string junk(size, 'A');
    // The exporter may close mid-request, so a failed send is expected.
    (void)tcp_send_all(fd, reinterpret_cast<const std::uint8_t*>(junk.data()),
                       junk.size());
    std::string response;
    std::uint8_t buffer[4096];
    for (;;) {
      const long n = tcp_recv_some(fd, buffer, sizeof buffer);
      if (n <= 0) break;
      response.append(reinterpret_cast<const char*>(buffer),
                      static_cast<std::size_t>(n));
    }
    tcp_close(fd);
    EXPECT_TRUE(response.empty()) << size << " bytes got: "
                                  << response.substr(0, 64);
  }
  // The exporter still serves real scrapes afterwards.
  EXPECT_NE(scrape(port).find("omig_z_total 1\n"), std::string::npos);
  exporter.stop();
}

TEST(PrometheusExporter, RestartsOnAFreshPort) {
  obs::MetricsRegistry reg;
  MetricsExporter exporter{reg};
  const std::uint16_t first = exporter.start();
  ASSERT_NE(first, 0);
  exporter.stop();
  const std::uint16_t second = exporter.start();
  ASSERT_NE(second, 0);
  EXPECT_NE(scrape(second).find("HTTP/1.0 200 OK"), std::string::npos);
  exporter.stop();
}

}  // namespace
}  // namespace omig::transport
