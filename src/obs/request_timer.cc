#include "obs/request_timer.h"

#include <algorithm>

#include "common/check.h"
#include "obs/event_journal.h"
#include "obs/trace_context.h"

namespace hom::obs {

namespace {

constexpr std::string_view kStageNames[kNumRequestStages] = {
    "parse", "sanitize", "predict", "observe", "checkpoint",
};

constexpr const char* kStageFamilyName = "hom.serve.stage_seconds";

/// The thread's in-flight request. Stage accumulation happens here, with
/// no synchronization; RecordRequest() is the only cross-thread hand-off.
/// `open` marks any request, timed or not, so a nested ScopedRequestTimer
/// stays a no-op; the rest is used only while internal::t_timing_request.
struct ActiveRequest {
  bool open = false;
  int64_t record = -1;
  std::chrono::steady_clock::time_point started;
  std::array<double, kNumRequestStages> stage_seconds{};
  int current_stage = -1;  ///< index into stage_seconds, -1 = unattributed
  std::chrono::steady_clock::time_point stage_started;
};

thread_local ActiveRequest g_active_request;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

namespace internal {
thread_local constinit bool t_timing_request = false;
}  // namespace internal

std::string_view RequestStageName(RequestStage stage) {
  size_t i = static_cast<size_t>(stage);
  HOM_DCHECK(i < kNumRequestStages);
  return kStageNames[i];
}

std::vector<double> StageSecondsBounds() {
  std::vector<double> bounds = Histogram::DefaultLatencyBoundsUs();
  for (double& b : bounds) b *= 1e-6;
  return bounds;
}

void RecordStageSeconds(std::string_view stage, double seconds) {
  static HistogramFamily* family = MetricsRegistry::Global().GetHistogramFamily(
      kStageFamilyName, StageSecondsBounds());
  family->WithLabels({{"stage", std::string(stage)}})->Record(seconds);
}

RequestTimer::RequestTimer() : RequestTimer(Options()) {}

RequestTimer::RequestTimer(Options options) : options_(std::move(options)) {
  HistogramFamily* family = MetricsRegistry::Global().GetHistogramFamily(
      kStageFamilyName, StageSecondsBounds());
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    stage_histograms_[i] =
        family->WithLabels({{"stage", std::string(kStageNames[i])}});
  }
  slowest_.reserve(options_.slowest_k);
}

bool RequestTimer::BeginRequest(bool always_time) {
  uint64_t ordinal = requests_.fetch_add(1, std::memory_order_relaxed);
  return always_time || ordinal % kRequestSamplePeriod == 0;
}

void RequestTimer::RecordRequest(
    int64_t record, double total_seconds,
    const std::array<double, kNumRequestStages>& stage_seconds) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Ingest(record, total_seconds, stage_seconds);
}

void RequestTimer::Ingest(
    int64_t record, double total_seconds,
    const std::array<double, kNumRequestStages>& stage_seconds) {
  size_t dominant = 0;
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    if (stage_seconds[i] > 0.0) stage_histograms_[i]->Record(stage_seconds[i]);
    if (stage_seconds[i] > stage_seconds[dominant]) dominant = i;
  }

  SlowRequest entry;
  entry.record = record;
  entry.total_us = total_seconds * 1e6;
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    entry.stage_us[i] = stage_seconds[i] * 1e6;
  }
  if (const TraceContext* ctx = CurrentTraceContext()) {
    entry.trace_hi = ctx->trace_hi;
    entry.trace_lo = ctx->trace_lo;
    entry.span_id = ctx->span_id;
  }

  bool retained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slowest_.size() < options_.slowest_k) {
      slowest_.push_back(entry);
      retained = true;
    } else if (!slowest_.empty() && entry.total_us > slowest_.back().total_us) {
      slowest_.back() = entry;
      retained = true;
    }
    if (retained) {
      std::sort(slowest_.begin(), slowest_.end(),
                [](const SlowRequest& a, const SlowRequest& b) {
                  return a.total_us > b.total_us;
                });
    }
  }
  if (retained) {
    EmitIfActive(EventType::kSlowRequest, kStageNames[dominant], record, -1,
                 -1, entry.total_us);
  }
}

uint64_t RequestTimer::requests() const {
  return requests_.load(std::memory_order_relaxed);
}

std::vector<RequestTimer::SlowRequest> RequestTimer::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_;
}

JsonValue RequestTimer::SlowestJson() const {
  JsonValue out = JsonValue::Array();
  for (const SlowRequest& slow : Slowest()) {
    JsonValue stages = JsonValue::Object();
    for (size_t i = 0; i < kNumRequestStages; ++i) {
      if (slow.stage_us[i] > 0.0) {
        stages.Set(std::string(kStageNames[i]), JsonValue(slow.stage_us[i]));
      }
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("record", JsonValue(static_cast<int64_t>(slow.record)));
    entry.Set("total_us", JsonValue(slow.total_us));
    entry.Set("stages", std::move(stages));
    if ((slow.trace_hi | slow.trace_lo) != 0 && slow.span_id != 0) {
      entry.Set("trace_id",
                JsonValue(TraceIdHex(
                    {slow.trace_hi, slow.trace_lo, slow.span_id})));
      entry.Set("span_id", JsonValue(SpanIdHex(slow.span_id)));
    }
    out.Append(std::move(entry));
  }
  return out;
}

ScopedRequestTimer::ScopedRequestTimer(RequestTimer* timer, int64_t record,
                                       bool always_time) {
  ActiveRequest& req = g_active_request;
  if (timer == nullptr || req.open) return;
  req.open = true;
  active_ = true;
  if (!timer->BeginRequest(always_time)) return;  // counted, not timed
  timed_ = timer;
  internal::t_timing_request = true;
  req.record = record;
  req.started = std::chrono::steady_clock::now();
  req.stage_seconds.fill(0.0);
  req.current_stage = -1;
}

ScopedRequestTimer::~ScopedRequestTimer() {
  if (!active_) return;
  ActiveRequest& req = g_active_request;
  req.open = false;
  if (timed_ == nullptr) return;
  internal::t_timing_request = false;  // deactivate before Ingest journals
  timed_->Ingest(req.record, SecondsSince(req.started), req.stage_seconds);
}

void ScopedRequestStage::Enter(RequestStage stage) {
  ActiveRequest& req = g_active_request;
  auto now = std::chrono::steady_clock::now();
  previous_stage_ = req.current_stage;
  previous_start_ = req.stage_started;
  if (previous_stage_ >= 0) {
    // Pause the enclosing stage: bank its elapsed time now, resume later.
    req.stage_seconds[previous_stage_] +=
        std::chrono::duration<double>(now - req.stage_started).count();
  }
  req.current_stage = static_cast<int>(stage);
  req.stage_started = now;
  active_ = true;
}

void ScopedRequestStage::Exit() {
  ActiveRequest& req = g_active_request;
  auto now = std::chrono::steady_clock::now();
  if (req.current_stage >= 0) {
    req.stage_seconds[req.current_stage] +=
        std::chrono::duration<double>(now - req.stage_started).count();
  }
  req.current_stage = previous_stage_;
  req.stage_started = now;  // the enclosing stage resumes from here
}

}  // namespace hom::obs
