#ifndef HOM_OBS_HTTP_SERVER_H_
#define HOM_OBS_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"

namespace hom::obs {

/// Response of one HTTP handler.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Parsed request line of one GET/HEAD/POST, for handlers that take
/// parameters (e.g. /profilez?seconds=2&hz=199). `path` excludes the query
/// string; `query` holds the percent-decoded key/value pairs ('+' decodes
/// to space, a key with no '=' maps to ""). For POST, `body` holds exactly
/// Content-Length bytes.
struct HttpRequest {
  std::string method = "GET";
  std::string path;
  std::string body;
  std::map<std::string, std::string> query;
  /// All request headers, keys lowercased (header names are
  /// case-insensitive on the wire), values whitespace-trimmed. A
  /// syntactically malformed header line fails the whole request with 400
  /// before any handler runs.
  std::map<std::string, std::string> headers;

  /// The value of query parameter `name`, or `fallback` when absent.
  const char* QueryOr(const std::string& name, const char* fallback) const {
    auto it = query.find(name);
    return it != query.end() ? it->second.c_str() : fallback;
  }

  /// The value of header `name` (lowercase), or `fallback` when absent.
  const char* HeaderOr(const std::string& name, const char* fallback) const {
    auto it = headers.find(name);
    return it != headers.end() ? it->second.c_str() : fallback;
  }
};

/// \brief Minimal dependency-free blocking HTTP/1.1 server for the
/// introspection endpoints (/metrics, /healthz, /statusz).
///
/// Threading model: Start() spawns an accept thread (it poll()s the listen
/// socket and a self-pipe that Stop() writes to, so Stop() returns as soon
/// as the in-flight request finishes) and one worker thread.
/// Accepted sockets go through a bounded queue; when the queue is full the
/// accept thread answers 503 inline and closes, so a scrape storm cannot
/// pile up file descriptors or block the online path. Every response is
/// `Connection: close` — scrape clients reconnect per pull, and keeping the
/// server single-worker keeps handler execution serialized (handlers need
/// no extra locking beyond what the data they read requires).
///
/// Handlers run on the worker thread; they must not block indefinitely.
/// GET (and HEAD, answered with empty body) is served from Handle()
/// registrations, POST from HandlePost() registrations; other methods get
/// 405, unregistered paths 404, oversized or malformed requests 400. POST
/// bodies are bounded by max_body_bytes (413 beyond it) and must arrive
/// complete within the socket IO timeout — a partial body is answered 400,
/// never waited on indefinitely, so a stalled uploader cannot wedge the
/// single worker.
///
/// The server instruments itself through the global MetricsRegistry:
/// `hom.server.requests{path=...,code=...}`, `hom.server.dropped`, and the
/// `hom.server.request_latency_us` histogram — so scraping /metrics shows
/// the scraper's own cost, and journals kServerStart/kServerStop when a
/// journal is active.
class HttpServer {
 public:
  struct Options {
    /// Loopback by default: the introspection surface is unauthenticated,
    /// so exposing it beyond the host must be an explicit choice.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port (read it back via port()).
    uint16_t port = 0;
    int backlog = 16;
    /// Accepted-but-unserved connections beyond this are answered 503.
    size_t queue_capacity = 16;
    /// Request heads larger than this are answered 400.
    size_t max_request_bytes = 8192;
    /// POST bodies larger than this are answered 413 without reading
    /// them. Large enough for a full serving checkpoint by default.
    size_t max_body_bytes = 64u << 20;
    /// Per-socket read/write timeout.
    int io_timeout_ms = 2000;
  };

  using Handler = std::function<HttpResponse()>;
  using RequestHandler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer();  ///< All-default Options.
  explicit HttpServer(Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match GET `path`. Must be called before
  /// Start().
  void Handle(std::string path, Handler handler);

  /// Like Handle(), for handlers that read query parameters.
  void Handle(std::string path, RequestHandler handler);

  /// Registers `handler` for exact-match POST `path`; the handler sees the
  /// complete request body. A path may have both a GET and a POST handler.
  /// Must be called before Start().
  void HandlePost(std::string path, RequestHandler handler);

  /// Binds, listens, and spawns the accept + worker threads. Fails if the
  /// port is taken or the address does not parse.
  Status Start();

  /// Stops accepting, drains the queue, joins both threads, closes the
  /// listen socket. Idempotent; also called by the destructor.
  void Stop();

  /// The bound port (resolves option port 0 to the kernel-assigned one).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, RequestHandler> handlers_;
  std::map<std::string, RequestHandler> post_handlers_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   ///< self-pipe: Stop() wakes the accept poll
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;

  std::thread accept_thread_;
  std::thread worker_thread_;
};

}  // namespace hom::obs

#endif  // HOM_OBS_HTTP_SERVER_H_
