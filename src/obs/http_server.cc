#include "obs/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/request_timer.h"
#include "obs/trace_context.h"

namespace hom::obs {

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

const char* StatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// Serializes and writes one full response; best-effort (the peer may have
/// gone away — scrapers time out and retry).
void WriteResponse(int fd, const HttpResponse& response, bool head_only) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (!head_only) out += response.body;
  size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

/// Reads until the end of the request head ("\r\n\r\n"); bytes past the
/// terminator (the start of a POST body) stay in *buf after *head_end.
/// Only the head counts against max_bytes.
bool ReadRequestHead(int fd, size_t max_bytes, std::string* buf,
                     size_t* head_end) {
  char chunk[1024];
  while (true) {
    size_t pos = buf->find("\r\n\r\n");
    if (pos != std::string::npos) {
      *head_end = pos + 4;
    } else if ((pos = buf->find("\n\n")) != std::string::npos) {
      *head_end = pos + 2;
    }
    if (pos != std::string::npos) return *head_end <= max_bytes;
    // No terminator yet: everything buffered so far is head.
    if (buf->size() > max_bytes) return false;
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf->append(chunk, static_cast<size_t>(n));
  }
}

/// Appends to *body until it holds `want` bytes total. False when the
/// peer stalls past the socket timeout or closes early — the caller turns
/// that into 400 instead of blocking the worker forever.
bool ReadBody(int fd, size_t want, std::string* body) {
  char chunk[4096];
  while (body->size() < want) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // timeout (EAGAIN) or EOF mid-body
    body->append(chunk, static_cast<size_t>(n));
  }
  body->resize(want);
  return true;
}

/// Case-insensitive Content-Length lookup in the raw head block. Returns
/// -1 when absent or malformed (both are a 400 for POST).
int64_t ContentLengthOf(std::string_view head) {
  size_t pos = head.find('\n');  // skip the request line
  while (pos != std::string_view::npos && pos + 1 < head.size()) {
    size_t line_start = pos + 1;
    size_t line_end = head.find('\n', line_start);
    std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                       : line_end - line_start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    constexpr std::string_view kName = "content-length";
    size_t colon = line.find(':');
    if (colon == kName.size()) {
      bool match = true;
      for (size_t i = 0; i < kName.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(line[i])) != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::string_view v = line.substr(colon + 1);
        while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) {
          v.remove_prefix(1);
        }
        while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) {
          v.remove_suffix(1);
        }
        if (v.empty() || v.size() > 18) return -1;
        int64_t value = 0;
        for (char c : v) {
          if (c < '0' || c > '9') return -1;
          value = value * 10 + (c - '0');
        }
        return value;
      }
    }
    pos = line_end;
  }
  return -1;
}

/// Parses every header line after the request line into lowercased-key
/// pairs (last occurrence wins). Returns false on a syntactically
/// malformed line — no colon, empty name, or whitespace inside the name —
/// which the caller answers with 400.
bool ParseHeaderLines(std::string_view head,
                      std::map<std::string, std::string>* out) {
  size_t pos = head.find('\n');  // skip the request line
  while (pos != std::string_view::npos && pos + 1 < head.size()) {
    size_t line_start = pos + 1;
    size_t line_end = head.find('\n', line_start);
    std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                       : line_end - line_start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    pos = line_end;
    if (line.empty()) continue;  // the blank terminator line
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string name;
    name.reserve(colon);
    for (size_t i = 0; i < colon; ++i) {
      unsigned char c = static_cast<unsigned char>(line[i]);
      if (std::isspace(c) || std::iscntrl(c)) return false;
      name.push_back(static_cast<char>(std::tolower(c)));
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
      value.remove_suffix(1);
    }
    (*out)[std::move(name)] = std::string(value);
  }
  return true;
}

void SetIoTimeout(int fd, int timeout_ms) {
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Percent-decodes one query component in place ('+' becomes space,
/// malformed escapes pass through literally).
std::string UrlDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < in.size() && std::isxdigit(in[i + 1]) &&
               std::isxdigit(in[i + 2])) {
      auto nibble = [](char h) {
        return h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10;
      };
      out += static_cast<char>(nibble(in[i + 1]) * 16 + nibble(in[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

/// Splits "a=1&b=2" into decoded pairs; a key with no '=' maps to "".
std::map<std::string, std::string> ParseQuery(std::string_view query) {
  std::map<std::string, std::string> out;
  while (!query.empty()) {
    size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      out[UrlDecode(pair)] = "";
    } else {
      out[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
  }
  return out;
}

void CountRequest(const std::string& path, int code) {
  // Labels vary per call, so this goes through the family directly (the
  // HOM_*_LABELED macros cache one handle per call site).
  static CounterFamily* family =
      MetricsRegistry::Global().GetCounterFamily("hom.server.requests");
  family->WithLabels({{"path", path}, {"code", std::to_string(code)}})->Add();
}

}  // namespace

HttpServer::HttpServer() : HttpServer(Options()) {}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(std::string path, Handler handler) {
  handlers_[std::move(path)] =
      [handler = std::move(handler)](const HttpRequest&) { return handler(); };
}

void HttpServer::Handle(std::string path, RequestHandler handler) {
  handlers_[std::move(path)] = std::move(handler);
}

void HttpServer::HandlePost(std::string path, RequestHandler handler) {
  post_handlers_[std::move(path)] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::Internal("bind " + options_.bind_address + ":" +
                                     std::to_string(options_.port) + ": " +
                                     std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }
  // Stop() writes one byte here to wake the accept thread's poll().
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC) < 0) {
    Status status =
        Status::Internal(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  wake_read_fd_ = wake[0];
  wake_write_fd_ = wake[1];

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  worker_thread_ = std::thread([this] { WorkerLoop(); });
  EmitIfActive(EventType::kServerStart, "server", -1, -1, port_);
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    // Set under the queue mutex: a worker between its predicate check and
    // its wait would otherwise miss the notify below and never wake.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_.store(true, std::memory_order_release);
  }
  const char wake = 0;
  while (::write(wake_write_fd_, &wake, 1) < 0 && errno == EINTR) {
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (worker_thread_.joinable()) worker_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int fd : queue_) ::close(fd);
    queue_.clear();
  }
  for (int* fd : {&listen_fd_, &wake_read_fd_, &wake_write_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  EmitIfActive(EventType::kServerStop, "server", -1, -1, port_);
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    // No timeout: Stop() wakes the poll through the self-pipe.
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    if (::poll(pfds, 2, /*timeout=*/-1) <= 0) continue;  // EINTR
    if (pfds[1].revents != 0) break;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetIoTimeout(fd, options_.io_timeout_ms);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() < options_.queue_capacity) {
        queue_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Overload: answer inline rather than stall the accept loop.
      HOM_COUNTER_INC("hom.server.dropped");
      HttpResponse overloaded;
      overloaded.status = 503;
      overloaded.body = "overloaded\n";
      WriteResponse(fd, overloaded, /*head_only=*/false);
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      if (!queue_.empty()) {
        fd = queue_.front();
        queue_.pop_front();
      } else if (stop_.load(std::memory_order_acquire)) {
        return;  // stop requested and queue drained
      }
    }
    if (fd >= 0) {
      ServeConnection(fd);
      ::close(fd);
    }
  }
}

void HttpServer::ServeConnection(int fd) {
  auto start = std::chrono::steady_clock::now();
  std::string buf;
  size_t head_end = 0;
  if (!ReadRequestHead(fd, options_.max_request_bytes, &buf, &head_end)) {
    HttpResponse bad;
    bad.status = 400;
    bad.body = "malformed request\n";
    WriteResponse(fd, bad, /*head_only=*/false);
    CountRequest("(malformed)", 400);
    return;
  }
  std::string_view head(buf.data(), head_end);
  // Request line: METHOD SP TARGET SP VERSION.
  size_t line_end = head.find('\n');
  std::string line(head.substr(0, line_end));
  size_t sp1 = line.find(' ');
  size_t sp2 = line.find(' ', sp1 == std::string::npos ? sp1 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    HttpResponse bad;
    bad.status = 400;
    bad.body = "malformed request line\n";
    WriteResponse(fd, bad, /*head_only=*/false);
    CountRequest("(malformed)", 400);
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  HttpRequest request;
  request.method = method;
  if (size_t query = target.find('?'); query != std::string::npos) {
    request.query = ParseQuery(std::string_view(target).substr(query + 1));
    target.resize(query);
  }
  request.path = target;
  if (!ParseHeaderLines(head, &request.headers)) {
    HttpResponse bad;
    bad.status = 400;
    bad.body = "malformed header line\n";
    WriteResponse(fd, bad, /*head_only=*/false);
    CountRequest("(malformed)", 400);
    return;
  }
  auto parsed = std::chrono::steady_clock::now();
  RecordStageSeconds("http_parse",
                     std::chrono::duration<double>(parsed - start).count());

  // A traced caller (the shipper, homctl swap) announces itself with a
  // `traceparent` header; the handler then runs inside a server-kind span
  // whose context is installed thread-locally, so journal emits and nested
  // spans on this thread join the caller's trace. An invalid traceparent
  // value is ignored (per W3C), not rejected — the request still runs.
  auto invoke = [&](const RequestHandler& handler) -> HttpResponse {
    auto traceparent = request.headers.find("traceparent");
    if (traceparent != request.headers.end()) {
      Result<TraceContext> ctx = ParseTraceparent(traceparent->second);
      if (ctx.ok()) {
        DistSpan span((method + " " + target).c_str(), SpanKind::kServer,
                      *ctx);
        HttpResponse traced = handler(request);
        if (traced.status >= 400) {
          span.set_status("http " + std::to_string(traced.status));
        }
        return traced;
      }
    }
    return handler(request);
  };

  HttpResponse response;
  bool head_only = method == "HEAD";
  if (method == "POST") {
    auto it = post_handlers_.find(target);
    if (it == post_handlers_.end()) {
      if (handlers_.count(target) > 0) {
        response.status = 405;
        response.body = "POST not supported on this path\n";
      } else {
        response.status = 404;
        response.body =
            "no such endpoint; try /metrics, /healthz, /statusz\n";
      }
    } else if (int64_t want = ContentLengthOf(head); want < 0) {
      response.status = 400;
      response.body = "missing or invalid Content-Length\n";
    } else if (static_cast<uint64_t>(want) > options_.max_body_bytes) {
      // Reject by the declared size without reading the body: an
      // oversized upload costs the worker nothing but this response.
      response.status = 413;
      response.body = "request body exceeds " +
                      std::to_string(options_.max_body_bytes) + " bytes\n";
    } else {
      request.body = buf.substr(head_end);
      if (request.body.size() > static_cast<uint64_t>(want)) {
        request.body.resize(static_cast<size_t>(want));
      }
      if (!ReadBody(fd, static_cast<size_t>(want), &request.body)) {
        response.status = 400;
        response.body = "truncated request body\n";
      } else {
        response = invoke(it->second);
      }
    }
  } else if (method != "GET" && method != "HEAD") {
    response.status = 405;
    response.body = "only GET, HEAD, and POST are supported\n";
  } else if (auto it = handlers_.find(target); it != handlers_.end()) {
    response = invoke(it->second);
  } else if (post_handlers_.count(target) > 0) {
    response.status = 405;
    response.body = "only POST is supported on this path\n";
  } else {
    response.status = 404;
    response.body = "no such endpoint; try /metrics, /healthz, /statusz\n";
  }
  auto handled = std::chrono::steady_clock::now();
  RecordStageSeconds("http_handle",
                     std::chrono::duration<double>(handled - parsed).count());
  WriteResponse(fd, response, head_only);
  auto written = std::chrono::steady_clock::now();
  RecordStageSeconds("http_write",
                     std::chrono::duration<double>(written - handled).count());

  double us =
      std::chrono::duration<double, std::micro>(written - start).count();
  HOM_HISTOGRAM_RECORD("hom.server.request_latency_us", us,
                       ::hom::obs::Histogram::DefaultLatencyBoundsUs());
  bool known =
      handlers_.count(target) > 0 || post_handlers_.count(target) > 0;
  CountRequest(known ? target : "(other)", response.status);
}

}  // namespace hom::obs
