/// \file
/// Tests for obs::HttpServer: raw-socket request/response behavior (status
/// codes, methods, malformed input), lifecycle (ephemeral port, idempotent
/// Stop), self-instrumentation, and an end-to-end scrape of a live
/// prequential run publishing through a ServingStatusBoard.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "eval/prequential.h"
#include "eval/serving_status.h"
#include "eval/stream_classifier.h"
#include "obs/alerts.h"
#include "obs/exposition.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/request_timer.h"
#include "obs/timeseries.h"
#include "obs/trace_context.h"
#include "streams/stagger.h"

namespace hom::obs {
namespace {

/// Sends `raw` to 127.0.0.1:`port` and returns everything the server wrote
/// back before closing (responses are Connection: close, so read-to-EOF is
/// the framing).
std::string RawRequest(uint16_t port, const std::string& raw,
                       bool shutdown_write = false) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  // Half-closing the write side hands the server a clean EOF, so a
  // deliberately short body is detected immediately instead of after the
  // server's read timeout.
  if (shutdown_write) ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string RawPost(uint16_t port, const std::string& path,
                    const std::string& body) {
  return RawRequest(port, "POST " + path + " HTTP/1.1\r\nHost: t\r\n" +
                              "Content-Type: application/octet-stream\r\n" +
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body);
}

std::string Get(uint16_t port, const std::string& path,
                const std::string& method = "GET") {
  return RawRequest(port,
                    method + " " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  size_t space = response.find(' ');
  if (space == std::string::npos) return -1;
  return std::atoi(response.c_str() + space + 1);
}

std::string BodyOf(const std::string& response) {
  size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? "" : response.substr(sep + 4);
}

TEST(HttpServerTest, ServesRegisteredPathOnEphemeralPort) {
  HttpServer server;
  server.Handle("/ping", [] {
    HttpResponse r;
    r.body = "pong\n";
    return r;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0) << "ephemeral port not resolved";
  EXPECT_TRUE(server.running());

  std::string response = Get(server.port(), "/ping");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "pong\n");
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, QueryStringIsStrippedBeforeDispatch) {
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{200, "text/plain", "ok"}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(Get(server.port(), "/p?x=1&y=2")), 200);
}

TEST(HttpServerTest, QueryParametersReachTheHandler) {
  HttpServer server;
  server.Handle("/q", [](const HttpRequest& request) {
    HttpResponse r;
    r.body = std::string(request.QueryOr("seconds", "none")) + "|" +
             request.QueryOr("hz", "99") + "|" +
             request.QueryOr("label", "-");
    return r;
  });
  ASSERT_TRUE(server.Start().ok());
  // %32 -> "2", '+' -> space, flag without '=' present but empty.
  EXPECT_EQ(BodyOf(Get(server.port(), "/q?seconds=%32.5&label=a+b")),
            "2.5|99|a b");
  std::string response = Get(server.port(), "/q?flag&hz=250");
  EXPECT_EQ(BodyOf(response), "none|250|-");
}

TEST(HttpServerTest, HttpStageTimingsFeedTheStageHistogram) {
  MetricsRegistry::Global().ResetForTesting();
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{200, "text/plain", "ok"}; });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(StatusOf(Get(server.port(), "/p")), 200);
  server.Stop();  // joins the worker: histogram counts are final

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const char* stage : {"http_parse", "http_handle", "http_write"}) {
    SeriesKey key{"hom.serve.stage_seconds", {{"stage", stage}}};
    ASSERT_EQ(snap.labeled_histograms.count(key), 1u) << stage;
    EXPECT_GE(snap.labeled_histograms.at(key).count, 1u) << stage;
  }
}

TEST(HttpServerTest, UnknownPathIs404) {
  HttpServer server;
  server.Handle("/known", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(Get(server.port(), "/nope")), 404);
}

TEST(HttpServerTest, NonGetMethodIs405) {
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(Get(server.port(), "/p", "POST")), 405);
  EXPECT_EQ(StatusOf(Get(server.port(), "/p", "DELETE")), 405);
}

TEST(HttpServerTest, PostBodyReachesTheHandler) {
  HttpServer server;
  server.HandlePost("/upload", [](const HttpRequest& request) {
    HttpResponse r;
    r.body = request.method + "|" + std::to_string(request.body.size()) +
             "|" + request.body;
    return r;
  });
  ASSERT_TRUE(server.Start().ok());
  // Binary-safe: embedded NUL and CRLF must survive into the handler.
  std::string body = std::string("ab\0cd\r\n!", 8);
  std::string response = RawPost(server.port(), "/upload", body);
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "POST|8|" + body);
}

TEST(HttpServerTest, OversizedPostBodyIs413WithoutReadingIt) {
  HttpServer::Options options;
  options.max_body_bytes = 64;
  HttpServer server(options);
  std::atomic<int> oversized_calls{0};
  server.HandlePost("/upload", [&oversized_calls](const HttpRequest& request) {
    if (request.body.size() > 64) ++oversized_calls;
    return HttpResponse{200, "text/plain",
                        std::to_string(request.body.size())};
  });
  ASSERT_TRUE(server.Start().ok());
  std::string response =
      RawPost(server.port(), "/upload", std::string(65, 'x'));
  EXPECT_EQ(StatusOf(response), 413);
  EXPECT_EQ(oversized_calls.load(), 0)
      << "handler must not run for an oversized body";
  // Exactly at the limit is fine.
  response = RawPost(server.port(), "/upload", std::string(64, 'x'));
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "64");
}

TEST(HttpServerTest, TruncatedPostBodyIs400NotAHang) {
  HttpServer server;
  std::atomic<int> partial_calls{0};
  server.HandlePost("/upload", [&partial_calls](const HttpRequest& request) {
    if (request.body != "full body") ++partial_calls;
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());
  // Claim 100 bytes, send 10, half-close. The worker must answer 400
  // immediately instead of blocking its read deadline per request.
  std::string raw =
      "POST /upload HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n"
      "only10byte";
  std::string response = RawRequest(server.port(), raw,
                                    /*shutdown_write=*/true);
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_NE(BodyOf(response).find("truncated"), std::string::npos);
  EXPECT_EQ(partial_calls.load(), 0)
      << "handler must not see a partial body";
  // The worker survived: the next request on the same path is served.
  EXPECT_EQ(StatusOf(RawPost(server.port(), "/upload", "full body")), 200);
}

TEST(HttpServerTest, PostWithoutContentLengthIs400) {
  HttpServer server;
  server.HandlePost("/upload", [](const HttpRequest&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawRequest(
      server.port(), "POST /upload HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_NE(BodyOf(response).find("Content-Length"), std::string::npos);
}

TEST(HttpServerTest, MethodPathMismatchIs405) {
  HttpServer server;
  server.HandlePost("/upload", [](const HttpRequest&) {
    return HttpResponse{};
  });
  server.Handle("/read", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(Get(server.port(), "/upload")), 405);
  EXPECT_EQ(StatusOf(RawPost(server.port(), "/read", "x")), 405);
  EXPECT_EQ(StatusOf(RawPost(server.port(), "/nowhere", "x")), 404);
}

TEST(HttpServerTest, PathServesBothGetAndPostWhenBothRegistered) {
  HttpServer server;
  server.Handle("/both", [] { return HttpResponse{200, "text/plain", "get"}; });
  server.HandlePost("/both", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", "post:" + request.body};
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(BodyOf(Get(server.port(), "/both")), "get");
  EXPECT_EQ(BodyOf(RawPost(server.port(), "/both", "b")), "post:b");
}

TEST(HttpServerTest, HeadGetsHeadersButNoBody) {
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{200, "text/plain", "body"}; });
  ASSERT_TRUE(server.Start().ok());
  std::string response = Get(server.port(), "/p", "HEAD");
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("Content-Length: 4"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "");
}

TEST(HttpServerTest, MalformedRequestLineIs400) {
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(RawRequest(server.port(), "garbage\r\n\r\n")), 400);
}

TEST(HttpServerTest, OversizedRequestIs400) {
  HttpServer::Options options;
  options.max_request_bytes = 128;
  HttpServer server(options);
  server.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  std::string huge = "GET /p HTTP/1.1\r\nX-Pad: " +
                     std::string(512, 'a') + "\r\n\r\n";
  EXPECT_EQ(StatusOf(RawRequest(server.port(), huge)), 400);
}

TEST(HttpServerTest, StopIsIdempotentAndPortReusable) {
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();
  server.Stop();
  server.Stop();  // second Stop must be a no-op, not a crash/deadlock

  HttpServer::Options options;
  options.port = port;  // SO_REUSEADDR: rebinding right away must work
  HttpServer second(options);
  second.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(second.Start().ok());
  EXPECT_EQ(second.port(), port);
  EXPECT_EQ(StatusOf(Get(port, "/p")), 200);
}

TEST(HttpServerTest, StopReturnsPromptlyAfterARequest) {
  // Several cycles, because Stop() right after a response races the worker
  // going back to wait for the next connection.
  for (int cycle = 0; cycle < 10; ++cycle) {
    HttpServer server;
    server.Handle("/p", [] { return HttpResponse{200, "text/plain", "ok"}; });
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(StatusOf(Get(server.port(), "/p")), 200);
    // The accept thread is back in poll() now. Stop() wakes it instead of
    // waiting for a poll timeout to notice the stop flag.
    auto start = std::chrono::steady_clock::now();
    server.Stop();
    double stop_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_LT(stop_ms, 100.0) << "cycle " << cycle;
    EXPECT_FALSE(server.running());
  }
}

TEST(HttpServerTest, StartFailsWhenPortTaken) {
  HttpServer first;
  first.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(first.Start().ok());

  HttpServer::Options options;
  options.port = first.port();
  HttpServer second(options);
  second.Handle("/p", [] { return HttpResponse{}; });
  EXPECT_FALSE(second.Start().ok());
}

TEST(HttpServerTest, ConcurrentScrapesAllComplete) {
  HttpServer server;
  std::atomic<int> calls{0};
  server.Handle("/p", [&calls] {
    ++calls;
    return HttpResponse{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(server.Start().ok());
  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&server, &ok] {
      if (StatusOf(Get(server.port(), "/p")) == 200) ++ok;
    });
  }
  for (auto& c : clients) c.join();
  // The bounded queue may 503 some under extreme load, but with one worker
  // and a 16-deep queue, 8 sequential-ish clients must all be served.
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(calls.load(), kClients);
}

TEST(HttpServerTest, CountsItsOwnRequests) {
  MetricsRegistry::Global().ResetForTesting();
  HttpServer server;
  server.Handle("/p", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());
  Get(server.port(), "/p");
  Get(server.port(), "/missing");
  server.Stop();  // joins the worker: counts are final afterwards

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  SeriesKey ok_key{"hom.server.requests",
                   {{"code", "200"}, {"path", "/p"}}};
  // Unregistered paths are attacker/typo-controlled, so they collapse into
  // one "(other)" series instead of minting unbounded label values.
  SeriesKey missing_key{"hom.server.requests",
                        {{"code", "404"}, {"path", "(other)"}}};
  ASSERT_EQ(snap.labeled_counters.count(ok_key), 1u);
  EXPECT_EQ(snap.labeled_counters.at(ok_key), 1u);
  ASSERT_EQ(snap.labeled_counters.count(missing_key), 1u);
  EXPECT_EQ(snap.labeled_counters.at(missing_key), 1u);
  EXPECT_EQ(snap.histograms.count("hom.server.request_latency_us"), 1u)
      << "request latency histogram missing";
}

// ---------------------------------------------------------------------------
// End-to-end: scrape a live prequential run. A throwaway classifier streams
// STAGGER records while on_progress refreshes a ServingStatusBoard; the
// /metrics and /statusz handlers are the same wiring homctl uses.

class ConstantClassifier : public StreamClassifier {
 public:
  hom::Label Predict(const Record&) override { return 0; }
  void ObserveLabeled(const Record&) override {}
  std::string name() const override { return "constant"; }
  size_t num_classes() const override { return 2; }
  int64_t ActiveConcept() const override { return 0; }
};

TEST(HttpServerTest, EndToEndScrapeOfLivePrequentialRun) {
  MetricsRegistry::Global().ResetForTesting();
  ServingStatusBoard board;
  board.SetStaticInfo("test-model", "stagger", 1);
  board.SetState("serving");

  HttpServer server;
  server.Handle("/metrics", [] {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = EncodePrometheusText(MetricsRegistry::Global().Snapshot());
    return r;
  });
  server.Handle("/statusz", [&board] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = board.StatusJson().Dump(2) + "\n";
    return r;
  });
  ASSERT_TRUE(server.Start().ok());

  StaggerGenerator gen(1);
  Dataset stream = gen.Generate(20000);
  ConstantClassifier clf;
  PrequentialOptions options;
  options.track_concept_stats = true;
  options.progress_every = 100;
  options.on_progress = [&board](const PrequentialProgress& p) {
    ServingStatusBoard::Progress progress;
    progress.records = p.record;
    progress.errors = p.num_errors;
    progress.active_concept = 0;
    progress.posterior = {1.0};
    progress.prior = {1.0};
    board.UpdateProgress(progress);
  };

  std::thread eval([&] { RunPrequential(&clf, stream, options); });
  // Scrape while the run is (very likely) still in flight; correctness of
  // the assertions below does not depend on the race either way.
  std::string metrics = BodyOf(Get(server.port(), "/metrics"));
  std::string statusz = BodyOf(Get(server.port(), "/statusz"));
  eval.join();

  // The final scrape sees the completed run.
  metrics = BodyOf(Get(server.port(), "/metrics"));
  EXPECT_NE(metrics.find("# TYPE hom_serving_records gauge"),
            std::string::npos)
      << metrics.substr(0, 512);
  EXPECT_NE(metrics.find("hom_serving_posterior{concept=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("hom_serving_records 20000"), std::string::npos);

  statusz = BodyOf(Get(server.port(), "/statusz"));
  EXPECT_NE(statusz.find("\"records\": 20000"), std::string::npos)
      << statusz.substr(0, 512);
  EXPECT_NE(statusz.find("\"state\": \"serving\""), std::string::npos);
  server.Stop();
}

// The board keeps a copy of the pushed concept stats and renders it on
// scrape: /statusz shows them as of the last push, not as the caller's
// object stands now.
TEST(ServingStatusBoardTest, ConceptStatsRenderAsOfTheLastPush) {
  ServingStatusBoard board;
  EXPECT_EQ(board.StatusJson().Find("concept_stats"), nullptr);

  OnlineConceptStats stats(/*num_classes=*/2, /*window=*/4);
  stats.Observe(0, 1, 1);
  stats.Observe(1, 0, 1);
  stats.Observe(1, 1, 1);
  board.UpdateConceptStats(stats);
  const std::string pushed = stats.ToJson().Dump();
  for (int i = 0; i < 9; ++i) stats.Observe(2, 0, 1);
  ASSERT_NE(stats.ToJson().Dump(), pushed);

  JsonValue status = board.StatusJson();
  const JsonValue* rendered = status.Find("concept_stats");
  ASSERT_NE(rendered, nullptr);
  EXPECT_EQ(rendered->Dump(), pushed);

  board.UpdateConceptStats(stats);
  status = board.StatusJson();
  rendered = status.Find("concept_stats");
  ASSERT_NE(rendered, nullptr);
  EXPECT_EQ(rendered->Dump(), stats.ToJson().Dump());
}

// ---------------------------------------------------------------------------
// End-to-end: scrape /alertz and /timeseriesz from a live monitored run.
// The on_progress callback ticks a TimeSeriesStore + AlertEngine exactly
// the way homctl wires them, raw-socket clients hit the endpoints while
// the replay is in flight, and the final state must show the rule firing
// at a deterministic stream position.

TEST(HttpServerTest, LiveAlertzAndTimeseriezScrape) {
  MetricsRegistry::Global().ResetForTesting();
  ServingStatusBoard board;
  board.SetStaticInfo("test-model", "stagger", 1);
  board.SetState("serving");

  TimeSeriesStore store;
  AlertRule rule;
  rule.name = "records-progressing";
  rule.series = "hom.serving.records";
  rule.kind = AlertRuleKind::kThreshold;
  rule.op = AlertOp::kGreaterThan;
  rule.threshold = 500.0;
  rule.for_ticks = 2;
  rule.resolve_ticks = 2;
  auto engine = AlertEngine::Make({rule});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  HttpServer server;
  server.Handle("/alertz", [&engine] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = (*engine)->StatusJson().Dump(2) + "\n";
    return r;
  });
  server.Handle("/timeseriesz", [&store](const HttpRequest& request) {
    HttpResponse r;
    r.content_type = "application/json";
    std::string series = request.QueryOr("series", "");
    if (series.empty()) {
      r.body = store.IndexJson().Dump(2) + "\n";
      return r;
    }
    auto json = store.QueryJson(
        series, std::strtoull(request.QueryOr("window", "60"), nullptr, 10),
        request.QueryOr("mode", "raw"));
    if (!json.ok()) {
      r.status = json.status().IsNotFound() ? 404 : 400;
      r.body = json.status().ToString() + "\n";
      return r;
    }
    r.body = json->Dump(2) + "\n";
    return r;
  });
  ASSERT_TRUE(server.Start().ok());

  StaggerGenerator gen(1);
  Dataset stream = gen.Generate(20000);
  ConstantClassifier clf;
  PrequentialOptions options;
  options.progress_every = 100;
  options.on_progress = [&](const PrequentialProgress& p) {
    ServingStatusBoard::Progress progress;
    progress.records = p.record;
    progress.errors = p.num_errors;
    progress.active_concept = 0;
    progress.posterior = {1.0};
    progress.prior = {1.0};
    board.UpdateProgress(progress);
    store.TickFromRegistry(MetricsRegistry::Global(),
                           static_cast<int64_t>(p.record));
    (*engine)->EvaluateTick(store, static_cast<int64_t>(p.record));
  };

  std::thread eval([&] { RunPrequential(&clf, stream, options); });
  // Scrapes racing the replay must still be well-formed JSON.
  std::string live_alertz = BodyOf(Get(server.port(), "/alertz"));
  EXPECT_TRUE(JsonValue::Parse(live_alertz).ok())
      << live_alertz.substr(0, 256);
  std::string live_index = BodyOf(Get(server.port(), "/timeseriesz"));
  EXPECT_TRUE(JsonValue::Parse(live_index).ok());
  eval.join();

  // 200 ticks happened; records > 500 held from tick 6 on, so the rule
  // fired at record 700 and stays firing at the end of the stream.
  auto alertz = JsonValue::Parse(BodyOf(Get(server.port(), "/alertz")));
  ASSERT_TRUE(alertz.ok());
  EXPECT_DOUBLE_EQ(alertz->Find("firing")->as_double(), 1.0);
  const JsonValue* rules = alertz->Find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ(rules->at(0).Find("state")->as_string(), "firing");
  EXPECT_DOUBLE_EQ(rules->at(0).Find("fired_record")->as_double(), 700.0);

  auto query = JsonValue::Parse(BodyOf(
      Get(server.port(), "/timeseriesz?series=hom.serving.records&window=8")));
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->Find("series")->as_string(), "hom.serving.records");
  const JsonValue* points = query->Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 8u);
  EXPECT_DOUBLE_EQ(points->at(7).Find("value")->as_double(), 20000.0);

  EXPECT_EQ(StatusOf(Get(server.port(),
                         "/timeseriesz?series=no.such.series")),
            404);
  EXPECT_EQ(StatusOf(Get(server.port(), "/timeseriesz?series=c&mode=bogus")),
            400);  // bad mode is rejected before the series lookup
  server.Stop();
}

// ---------------------------------------------------------------------------
// Scrape-while-writing stress: several raw-socket clients hammer /metrics
// and /profilez while a prequential replay mutates every metric family
// they read. The assertions are liveness + well-formedness: every request
// gets a complete HTTP response with a sane status, no torn bodies, and
// the run itself is unperturbed. (ASan/TSan builds turn data races here
// into hard failures.)

TEST(HttpServerStressTest, ConcurrentScrapesDuringLiveRun) {
  MetricsRegistry::Global().ResetForTesting();
  ServingStatusBoard board;
  board.SetStaticInfo("stress-model", "stagger", 1);
  board.SetState("serving");

  HttpServer server;
  server.Handle("/metrics", [] {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = EncodePrometheusText(MetricsRegistry::Global().Snapshot());
    return r;
  });
  server.Handle("/profilez", HandleProfilezRequest);
  ASSERT_TRUE(server.Start().ok());

  StaggerGenerator gen(7);
  Dataset stream = gen.Generate(60000);
  ConstantClassifier clf;
  RequestTimer request_timer;
  PrequentialOptions options;
  options.request_timer = &request_timer;  // stage histograms mutate too

  std::atomic<bool> done{false};
  std::thread eval([&] {
    // Keep the stream busy for the whole scrape barrage.
    while (!done.load(std::memory_order_relaxed)) {
      RunPrequential(&clf, stream, options);
    }
  });

  constexpr int kScrapers = 4;
  constexpr int kRounds = 12;
  std::atomic<int> bad{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&server, &bad, t] {
      for (int round = 0; round < kRounds; ++round) {
        // One scraper mixes in short /profilez windows; the rest scrape
        // metrics as fast as the single worker serves them.
        std::string path = (t == 0 && round % 4 == 0)
                               ? "/profilez?seconds=0.05&hz=200"
                               : "/metrics";
        std::string response = Get(server.port(), path);
        int status = StatusOf(response);
        // 200 normal; 409 when two profile windows collide; 501 without
        // POSIX timers; 503 when the bounded queue sheds load. Anything
        // else (or a torn response) is a bug.
        if (status != 200 && status != 409 && status != 501 &&
            status != 503) {
          ++bad;
          continue;
        }
        if (response.find("\r\n\r\n") == std::string::npos) ++bad;
        if (status == 200 && path == "/metrics" &&
            BodyOf(response).find("hom_") == std::string::npos) {
          ++bad;
        }
      }
    });
  }
  for (auto& s : scrapers) s.join();
  done.store(true, std::memory_order_relaxed);
  eval.join();
  server.Stop();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(request_timer.requests(), 0u);
}

// ---------------------------------------------------------------------------
// Request headers and trace propagation.

TEST(HttpServerTest, HeadersReachTheHandlerLowercasedAndTrimmed) {
  HttpServer server;
  server.Handle("/h", [](const HttpRequest& request) {
    HttpResponse r;
    r.body = std::string(request.HeaderOr("x-shard", "none")) + "|" +
             request.HeaderOr("x-missing", "-") + "|" +
             request.HeaderOr("host", "?");
    return r;
  });
  ASSERT_TRUE(server.Start().ok());
  std::string response =
      RawRequest(server.port(),
                 "GET /h HTTP/1.1\r\nHost: t\r\nX-SHARD:   7  \r\n\r\n");
  // Names are lowercased, values whitespace-trimmed, absent headers fall
  // back.
  EXPECT_EQ(BodyOf(response), "7|-|t");
}

TEST(HttpServerTest, LastOccurrenceOfARepeatedHeaderWins) {
  HttpServer server;
  server.Handle("/h", [](const HttpRequest& request) {
    return HttpResponse{200, "text/plain", request.HeaderOr("x-a", "")};
  });
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawRequest(
      server.port(), "GET /h HTTP/1.1\r\nX-A: first\r\nX-A: second\r\n\r\n");
  EXPECT_EQ(BodyOf(response), "second");
}

TEST(HttpServerTest, MalformedHeaderLineIsRejectedWith400) {
  HttpServer server;
  bool handler_ran = false;
  server.Handle("/h", [&handler_ran](const HttpRequest&) {
    handler_ran = true;
    return HttpResponse{};
  });
  ASSERT_TRUE(server.Start().ok());
  // No colon at all, an empty name, and whitespace inside the name: each
  // fails the whole request before any handler runs.
  for (const char* line :
       {"not a header line", ": empty-name", "Bad Name: x"}) {
    std::string response = RawRequest(
        server.port(),
        "GET /h HTTP/1.1\r\n" + std::string(line) + "\r\n\r\n");
    EXPECT_EQ(StatusOf(response), 400) << line;
  }
  EXPECT_FALSE(handler_ran);
}

TEST(HttpServerTest, TraceparentHeaderInstallsTheCallersContext) {
  TraceBuffer& buffer = TraceBuffer::Instance();
  buffer.Reset();
  buffer.set_enabled(true);
  HttpServer server;
  server.Handle("/traced", [](const HttpRequest&) {
    HttpResponse r;
    const TraceContext* ctx = CurrentTraceContext();
    r.body = ctx != nullptr ? TraceIdHex(*ctx) : "no-context";
    return r;
  });
  ASSERT_TRUE(server.Start().ok());

  std::string response = RawRequest(
      server.port(),
      "GET /traced HTTP/1.1\r\n"
      "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
      "\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 200);
  // The handler ran inside the caller's trace...
  EXPECT_EQ(BodyOf(response), "4bf92f3577b34da6a3ce929d0e0e4736");
  // ...and the server recorded a server-kind span parented on the remote
  // caller's span id.
  server.Stop();
  std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "GET /traced");
  EXPECT_EQ(spans[0].kind, SpanKind::kServer);
  EXPECT_EQ(TraceIdHex({spans[0].trace_hi, spans[0].trace_lo, 0}),
            "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(SpanIdHex(spans[0].parent_span_id), "00f067aa0ba902b7");
  buffer.set_enabled(false);
  buffer.Reset();
}

TEST(HttpServerTest, InvalidTraceparentIsIgnoredNotRejected) {
  TraceBuffer& buffer = TraceBuffer::Instance();
  buffer.Reset();
  buffer.set_enabled(true);
  HttpServer server;
  server.Handle("/traced", [](const HttpRequest&) {
    HttpResponse r;
    r.body = CurrentTraceContext() != nullptr ? "context" : "no-context";
    return r;
  });
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawRequest(
      server.port(),
      "GET /traced HTTP/1.1\r\ntraceparent: 00-garbage-garbage-01\r\n\r\n");
  // Per W3C, an unparseable traceparent never fails the request; the
  // handler just runs untraced.
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "no-context");
  server.Stop();
  EXPECT_TRUE(buffer.Snapshot().empty());
  buffer.set_enabled(false);
  buffer.Reset();
}

TEST(HttpServerTest, ErrorResponsesMarkTheServerSpanStatus) {
  TraceBuffer& buffer = TraceBuffer::Instance();
  buffer.Reset();
  buffer.set_enabled(true);
  HttpServer server;
  server.Handle("/fail", [](const HttpRequest&) {
    return HttpResponse{503, "text/plain", "overloaded\n"};
  });
  ASSERT_TRUE(server.Start().ok());
  std::string response = RawRequest(
      server.port(),
      "GET /fail HTTP/1.1\r\n"
      "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
      "\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 503);
  server.Stop();
  std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].status, "http 503");
  buffer.set_enabled(false);
  buffer.Reset();
}

}  // namespace
}  // namespace hom::obs
