#ifndef HOM_OBS_REQUEST_TIMER_H_
#define HOM_OBS_REQUEST_TIMER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace hom::obs {

/// The stages one served record passes through (DESIGN.md §11). Stage
/// durations feed the labeled `hom.serve.stage_seconds{stage=...}`
/// histogram family; the same family also carries the HTTP server's
/// http_parse/http_handle/http_write segments, so one scrape shows where
/// both record time and scrape time go.
enum class RequestStage : uint8_t {
  kParse = 0,   ///< decoding / splitting the raw record
  kSanitize,    ///< input hardening (reject / impute)
  kPredict,     ///< model prediction
  kObserve,     ///< drift tracking + online learning
  kCheckpoint,  ///< serving-state persistence
};

inline constexpr size_t kNumRequestStages = 5;

/// Stable wire name of a stage ("parse", "sanitize", ...).
std::string_view RequestStageName(RequestStage stage);

/// Bucket bounds for stage durations: 1 µs .. ~4 s in powers of 4,
/// expressed in seconds (DefaultLatencyBoundsUs scaled).
std::vector<double> StageSecondsBounds();

/// Records one duration into `hom.serve.stage_seconds{stage=<stage>}`.
/// For ad-hoc stages (the HTTP segments); the per-record path goes through
/// RequestTimer's cached handles instead.
void RecordStageSeconds(std::string_view stage, double seconds);

/// \brief Per-request latency attribution: accumulates stage timings for
/// a sample of the served records, feeds the stage histogram family, and
/// keeps the slowest-K sampled requests (with their stage breakdowns) for
/// /statusz.
///
/// A request is opened with the ScopedRequestTimer RAII. One request in
/// kRequestSamplePeriod is timed (the 1st, 65th, 129th, ... this timer
/// sees), plus every request opened with `always_time`; the rest are only
/// counted. A timed request activates this timer on the current thread;
/// stages inside it are marked with ScopedRequestStage, which nests —
/// entering a stage pauses the enclosing one, so every microsecond lands in
/// exactly one stage. Code outside any ScopedRequestStage is not attributed
/// (it shows up in the request total but no stage), keeping the breakdown
/// honest.
///
/// Thread-safe: stage accumulation is thread-local, only the finished
/// request crosses into the mutex-guarded slow-K set.
class RequestTimer {
 public:
  /// Times one request in this many: a timed request reads the clock about
  /// a dozen times and takes a mutex, which would otherwise cost more than
  /// the rest of a cheap record. Same period as the predict-latency sample
  /// (HighOrderOptions::latency_sample_period's default).
  static constexpr uint64_t kRequestSamplePeriod = 64;

  struct Options {
    /// How many slowest requests to retain for /statusz and the journal.
    size_t slowest_k = 8;
  };

  /// One retained slow request: stream position, total wall time, and how
  /// that total splits across the stages. When the recording thread had a
  /// trace context installed, the trace/span ids ride along so a slow
  /// entry on /statusz can be joined against span files and journals from
  /// other processes (serving-loop records usually carry none).
  struct SlowRequest {
    int64_t record = -1;
    double total_us = 0.0;
    std::array<double, kNumRequestStages> stage_us{};
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    uint64_t span_id = 0;
  };

  RequestTimer();  ///< All-default Options.
  explicit RequestTimer(Options options);

  RequestTimer(const RequestTimer&) = delete;
  RequestTimer& operator=(const RequestTimer&) = delete;

  /// Counts and ingests one finished, timed request: records each nonzero
  /// stage into the histogram family and, if it ranks among the slowest K
  /// seen, retains it and journals kSlowRequest (`source` = the dominant
  /// stage).
  void RecordRequest(int64_t record, double total_seconds,
                     const std::array<double, kNumRequestStages>& stage_seconds);

  /// Requests seen since construction: every request a ScopedRequestTimer
  /// opened, timed or not, plus every direct RecordRequest call.
  uint64_t requests() const;

  /// The retained slowest requests among the timed ones, slowest first.
  std::vector<SlowRequest> Slowest() const;

  /// Array of {"record", "total_us", "stages": {name: us, ...}} objects,
  /// slowest first — the "slow_requests" section of /statusz.
  JsonValue SlowestJson() const;

 private:
  friend class ScopedRequestTimer;

  /// Counts one request and says whether to time it.
  bool BeginRequest(bool always_time);

  /// RecordRequest without the count (BeginRequest already counted it).
  void Ingest(int64_t record, double total_seconds,
              const std::array<double, kNumRequestStages>& stage_seconds);

  const Options options_;
  std::array<Histogram*, kNumRequestStages> stage_histograms_{};
  std::atomic<uint64_t> requests_{0};
  mutable std::mutex mu_;
  std::vector<SlowRequest> slowest_;  ///< sorted, slowest first
};

/// \brief RAII: opens the current thread's in-flight request on `timer`
/// for the enclosing scope. When the timer samples it (or `always_time` is
/// set, as for a record that will checkpoint), the request is timed and
/// finalized into the timer on destruction; otherwise it is only counted.
/// Does not nest (a second activation on the same thread is a no-op) — one
/// record is one request.
class ScopedRequestTimer {
 public:
  ScopedRequestTimer(RequestTimer* timer, int64_t record,
                     bool always_time = false);
  ~ScopedRequestTimer();

  ScopedRequestTimer(const ScopedRequestTimer&) = delete;
  ScopedRequestTimer& operator=(const ScopedRequestTimer&) = delete;

 private:
  bool active_ = false;             ///< this scope opened the request
  RequestTimer* timed_ = nullptr;   ///< the timer, when it times the request
};

namespace internal {
/// True while the current thread times a sampled request. Declared here so
/// that ScopedRequestStage's no-op path is one inline thread-local read.
extern thread_local constinit bool t_timing_request;
}  // namespace internal

/// \brief RAII: attributes the enclosed scope to `stage` of the current
/// thread's in-flight request. Nesting pauses the enclosing stage. A
/// cheap no-op (one thread-local read) when no request is being timed —
/// outside any request, or inside one the timer did not sample — so
/// library code (e.g. the sanitizer) can mark its stage unconditionally.
class ScopedRequestStage {
 public:
  explicit ScopedRequestStage(RequestStage stage) {
    if (internal::t_timing_request) Enter(stage);
  }
  ~ScopedRequestStage() {
    if (active_) Exit();
  }

  ScopedRequestStage(const ScopedRequestStage&) = delete;
  ScopedRequestStage& operator=(const ScopedRequestStage&) = delete;

 private:
  void Enter(RequestStage stage);
  void Exit();

  bool active_ = false;
  int previous_stage_ = -1;
  std::chrono::steady_clock::time_point previous_start_;
};

}  // namespace hom::obs

#endif  // HOM_OBS_REQUEST_TIMER_H_
