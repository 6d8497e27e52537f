#include "obs/prof.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "obs/event_journal.h"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>

#include <csignal>
#include <ctime>
#endif

namespace hom::obs {

namespace {

/// Frames kept per raw sample. 48 levels cover the deepest hom:: paths
/// (recursive C4.5 walks included) without making the ring enormous.
constexpr size_t kMaxRawFrames = 48;
/// backtrace() in the SIGPROF handler first records the handler itself and
/// then the sigreturn trampoline the kernel returns through; the
/// interrupted function comes next. Collect() drops these frames, so every
/// sample is charged to the function the signal interrupted.
constexpr size_t kHandlerFrames = 2;
/// The handler's exported symbol (see hom_prof_signal_handler below).
constexpr std::string_view kHandlerName = "hom_prof_signal_handler";
/// A backtrace() interceptor (the sanitizers install one) records its own
/// frame before the handler's; Collect() looks this far for the handler.
constexpr size_t kMaxPrologueFrames = kHandlerFrames + 2;
constexpr uint64_t kSlotEmpty = ~uint64_t{0};

constexpr double kMinHz = 1.0;
constexpr double kMaxHz = 1000.0;
constexpr size_t kMinRingCapacity = 64;

#if defined(__linux__)

/// One preallocated ring slot. `ready_seq` is the commit protocol: the
/// handler claims a sequence number, writes the payload, then
/// release-stores the sequence — the collector only trusts slots whose
/// stored sequence matches the one it expects for that slot.
struct RawSlot {
  std::atomic<uint64_t> ready_seq{kSlotEmpty};
  double t_us = 0.0;
  uint32_t depth = 0;
  uint32_t phase_depth = 0;
  void* frames[kMaxPrologueFrames + kMaxRawFrames];
  const char* phases[kPhaseStackCapacity];
};

struct ProfilerState {
  std::unique_ptr<RawSlot[]> ring;
  size_t capacity = 0;
  std::atomic<uint64_t> next_seq{0};
  std::atomic<uint64_t> truncated{0};
  timespec epoch{};
  timespec ended{};
  double hz = 0.0;
  timer_t timer{};
  bool timer_live = false;
};

/// Control-plane state. `g_active_state` is the only thing the signal
/// handler reads; everything else is guarded by `g_control_mu`.
std::mutex g_control_mu;
std::atomic<ProfilerState*> g_active_state{nullptr};
std::unique_ptr<ProfilerState> g_owned_state;
bool g_handler_installed = false;

#endif  // defined(__linux__)

}  // namespace

#if defined(__linux__)

/// SIGPROF handler: claim a slot, stamp it, unwind, publish. Everything
/// called here is async-signal-safe (backtrace after the Start() warm-up).
/// Exported with C linkage so dladdr names it: Collect() finds it by that
/// name, and a stack that still ended in it would fail
/// tools/check_folded_profile.py.
extern "C" void hom_prof_signal_handler(int, siginfo_t*, void*) {
  int saved_errno = errno;
  ProfilerState* state = g_active_state.load(std::memory_order_acquire);
  if (state != nullptr) {
    uint64_t seq = state->next_seq.fetch_add(1, std::memory_order_relaxed);
    RawSlot& slot = state->ring[seq % state->capacity];
    slot.ready_seq.store(kSlotEmpty, std::memory_order_relaxed);
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    slot.t_us =
        static_cast<double>(now.tv_sec - state->epoch.tv_sec) * 1e6 +
        static_cast<double>(now.tv_nsec - state->epoch.tv_nsec) * 1e-3;
    constexpr int kCapacity =
        static_cast<int>(kMaxPrologueFrames + kMaxRawFrames);
    int depth = backtrace(slot.frames, kCapacity);
    slot.depth = depth > 0 ? static_cast<uint32_t>(depth) : 0;
    if (depth >= kCapacity) {
      state->truncated.fetch_add(1, std::memory_order_relaxed);
    }
    slot.phase_depth = static_cast<uint32_t>(
        CapturePhaseStack(slot.phases, kPhaseStackCapacity));
    slot.ready_seq.store(seq, std::memory_order_release);
  }
  errno = saved_errno;
}

#endif  // defined(__linux__)

namespace {

#if defined(__linux__)

/// Folded frames are ';'-joined, so the separator (and line breaks) must
/// never appear inside a symbol; demangled template args can contain
/// anything.
void SanitizeFrameName(std::string* name) {
  for (char& c : *name) {
    if (c == ';') c = ',';
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
}

std::string SymbolizeAddress(void* addr) {
  Dl_info info;
  if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr &&
      info.dli_sname[0] != '\0') {
    int demangle_status = 0;
    char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                          &demangle_status);
    std::string name = (demangle_status == 0 && demangled != nullptr)
                           ? demangled
                           : info.dli_sname;
    std::free(demangled);
    SanitizeFrameName(&name);
    return name;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx", reinterpret_cast<size_t>(addr));
  return buf;
}

/// Interns addresses into the ProfileData frame table, caching per unique
/// address (dladdr + demangling are the expensive part of Collect()).
class FrameInterner {
 public:
  explicit FrameInterner(std::vector<std::string>* table) : table_(table) {}

  uint32_t Intern(void* addr) {
    auto it = cache_.find(addr);
    if (it != cache_.end()) return it->second;
    table_->push_back(SymbolizeAddress(addr));
    uint32_t id = static_cast<uint32_t>(table_->size() - 1);
    cache_.emplace(addr, id);
    return id;
  }

  const std::string& name(uint32_t id) const { return (*table_)[id]; }

 private:
  std::vector<std::string>* table_;
  std::unordered_map<void*, uint32_t> cache_;
};

double TimespecDiffSeconds(const timespec& a, const timespec& b) {
  return static_cast<double>(b.tv_sec - a.tv_sec) +
         1e-9 * static_cast<double>(b.tv_nsec - a.tv_nsec);
}

/// Disarms the timer and unpublishes the state (callers hold
/// g_control_mu). The buffered samples stay in g_owned_state for
/// Collect().
void StopLocked() {
  ProfilerState* state = g_active_state.load(std::memory_order_acquire);
  if (state == nullptr) return;
  if (state->timer_live) {
    timer_delete(state->timer);
    state->timer_live = false;
  }
  clock_gettime(CLOCK_MONOTONIC, &state->ended);
  g_active_state.store(nullptr, std::memory_order_release);
  uint64_t total = state->next_seq.load(std::memory_order_relaxed);
  EmitIfActive(EventType::kProfileStop, "prof", -1, -1, -1,
               static_cast<double>(total < state->capacity
                                       ? total
                                       : static_cast<uint64_t>(
                                             state->capacity)));
}

#endif  // defined(__linux__)

double ClampHz(double hz) {
  if (!(hz >= kMinHz)) return kMinHz;  // NaN lands here too
  return hz > kMaxHz ? kMaxHz : hz;
}

}  // namespace

std::map<std::string, uint64_t> ProfileData::FoldedCounts() const {
  std::map<std::string, uint64_t> counts;
  std::string key;
  for (const ProfileSample& sample : samples) {
    key.clear();
    for (size_t i = 0; i < sample.stack.size(); ++i) {
      if (i > 0) key += ';';
      key += frames[sample.stack[i]];
    }
    if (key.empty()) key = "(unknown)";
    ++counts[key];
  }
  return counts;
}

std::string ProfileData::ToFolded() const {
  std::string out;
  for (const auto& [stack, count] : FoldedCounts()) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

JsonValue ProfileData::SummaryJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("hz", JsonValue(hz));
  out.Set("duration_seconds", JsonValue(duration_seconds));
  out.Set("samples", JsonValue(static_cast<uint64_t>(samples.size())));
  out.Set("dropped", JsonValue(dropped));
  out.Set("truncated", JsonValue(truncated));
  out.Set("distinct_stacks",
          JsonValue(static_cast<uint64_t>(FoldedCounts().size())));
  return out;
}

void ProfileData::MergeFrom(const ProfileData& other) {
  uint32_t offset = static_cast<uint32_t>(frames.size());
  frames.insert(frames.end(), other.frames.begin(), other.frames.end());
  for (ProfileSample sample : other.samples) {
    for (uint32_t& id : sample.stack) id += offset;
    samples.push_back(std::move(sample));
  }
  duration_seconds += other.duration_seconds;
  dropped += other.dropped;
  truncated += other.truncated;
  if (hz == 0.0) hz = other.hz;
}

void AttributeSamplesToPhases(const ProfileData& data, PhaseNode* tree) {
  if (tree == nullptr) return;
  double period = data.sample_period_seconds();
  if (period <= 0.0) return;
  for (const ProfileSample& sample : data.samples) {
    PhaseNode* node = tree;
    if (sample.phases.empty()) {
      node = tree->FindOrAddChild("(unattributed)");
    } else {
      for (const std::string& name : sample.phases) {
        node = node->FindOrAddChild(name);
      }
    }
    node->self_cpu_seconds += period;
  }
}

SamplingProfiler& SamplingProfiler::Global() {
  static SamplingProfiler* profiler = new SamplingProfiler();
  return *profiler;
}

#if defined(__linux__)

Status SamplingProfiler::Start(const ProfileOptions& options) {
  std::lock_guard<std::mutex> lock(g_control_mu);
  if (g_active_state.load(std::memory_order_acquire) != nullptr) {
    return Status::FailedPrecondition(
        "profiler already running (one sampling window at a time)");
  }
  auto state = std::make_unique<ProfilerState>();
  state->hz = ClampHz(options.hz);
  state->capacity = options.max_samples < kMinRingCapacity
                        ? kMinRingCapacity
                        : options.max_samples;
  state->ring = std::make_unique<RawSlot[]>(state->capacity);
  clock_gettime(CLOCK_MONOTONIC, &state->epoch);

  // backtrace() lazily loads libgcc's unwinder on first use — do that here,
  // outside signal context, so the handler never allocates.
  void* warmup[4];
  backtrace(warmup, 4);

  if (!g_handler_installed) {
    struct sigaction action {};
    action.sa_sigaction = hom_prof_signal_handler;
    action.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0) {
      return Status::Internal(std::string("sigaction(SIGPROF): ") +
                              std::strerror(errno));
    }
    // Left installed for the process lifetime: it no-ops with no active
    // state, and uninstalling could let a queued SIGPROF hit the default
    // action (terminate).
    g_handler_installed = true;
  }

  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  // CPU-time driven: an idle process takes no samples. Fall back to wall
  // sampling where the process CPU clock cannot drive a timer.
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &sev, &state->timer) != 0 &&
      timer_create(CLOCK_MONOTONIC, &sev, &state->timer) != 0) {
    return Status::Internal(std::string("timer_create: ") +
                            std::strerror(errno));
  }
  state->timer_live = true;

  long period_ns = std::lround(1e9 / state->hz);
  itimerspec spec{};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;

  g_active_state.store(state.get(), std::memory_order_release);
  if (timer_settime(state->timer, 0, &spec, nullptr) != 0) {
    g_active_state.store(nullptr, std::memory_order_release);
    timer_delete(state->timer);
    return Status::Internal(std::string("timer_settime: ") +
                            std::strerror(errno));
  }
  double hz = state->hz;
  g_owned_state = std::move(state);
  EmitIfActive(EventType::kProfileStart, "prof", -1, -1, -1, hz);
  return Status::OK();
}

void SamplingProfiler::Stop() {
  std::lock_guard<std::mutex> lock(g_control_mu);
  StopLocked();
}

ProfileData SamplingProfiler::Collect() {
  std::unique_ptr<ProfilerState> state;
  {
    std::lock_guard<std::mutex> lock(g_control_mu);
    StopLocked();
    state = std::move(g_owned_state);
  }
  ProfileData data;
  if (state == nullptr) return data;
  // A handler on another thread may have claimed a slot just before the
  // disarm; give it a moment, then skip any slot that never committed.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  data.hz = state->hz;
  data.duration_seconds = TimespecDiffSeconds(state->epoch, state->ended);
  data.truncated = state->truncated.load(std::memory_order_relaxed);
  uint64_t total = state->next_seq.load(std::memory_order_relaxed);
  uint64_t kept = total < state->capacity ? total : state->capacity;
  data.dropped = total - kept;
  data.samples.reserve(kept);

  FrameInterner interner(&data.frames);
  for (uint64_t seq = total - kept; seq < total; ++seq) {
    RawSlot& slot = state->ring[seq % state->capacity];
    if (slot.ready_seq.load(std::memory_order_acquire) != seq) {
      ++data.dropped;  // claimed but never committed, or overwritten late
      continue;
    }
    // Drop the capture prologue: the frames up to the handler's and the
    // sigreturn trampoline after it. Unsymbolized, the handler is taken to
    // be the first frame.
    size_t start = kHandlerFrames;
    for (size_t i = 0; i < slot.depth && i < kMaxPrologueFrames; ++i) {
      if (interner.name(interner.Intern(slot.frames[i])) == kHandlerName) {
        start = i + kHandlerFrames;
        break;
      }
    }
    ProfileSample sample;
    sample.t_us = slot.t_us;
    if (slot.depth > start) {
      sample.stack.reserve(slot.depth - start);
      for (size_t i = slot.depth; i > start; --i) {  // root-first
        sample.stack.push_back(interner.Intern(slot.frames[i - 1]));
      }
    }
    sample.phases.reserve(slot.phase_depth);
    for (uint32_t i = 0; i < slot.phase_depth; ++i) {
      sample.phases.emplace_back(slot.phases[i]);
    }
    data.samples.push_back(std::move(sample));
  }
  return data;
}

bool SamplingProfiler::running() const {
  return g_active_state.load(std::memory_order_acquire) != nullptr;
}

#else  // !defined(__linux__)

Status SamplingProfiler::Start(const ProfileOptions&) {
  return Status::NotImplemented(
      "sampling profiler needs POSIX timer_create/SIGPROF (Linux)");
}

void SamplingProfiler::Stop() {}

ProfileData SamplingProfiler::Collect() { return ProfileData(); }

bool SamplingProfiler::running() const { return false; }

#endif  // defined(__linux__)

HttpResponse HandleProfilezRequest(const HttpRequest& request) {
  double seconds = std::atof(request.QueryOr("seconds", "1"));
  if (!(seconds >= 0.05)) seconds = 0.05;  // NaN/garbage lands here
  if (seconds > 30.0) seconds = 30.0;
  ProfileOptions options;
  options.hz = ClampHz(std::atof(request.QueryOr("hz", "99")));

  HttpResponse response;
  Status status = SamplingProfiler::Global().Start(options);
  if (!status.ok()) {
    response.status =
        status.code() == StatusCode::kFailedPrecondition ? 409 : 501;
    response.body = status.ToString() + "\n";
    return response;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  ProfileData data = SamplingProfiler::Global().Collect();
  response.content_type = "text/plain; charset=utf-8";
  response.body = data.ToFolded();
  return response;
}

}  // namespace hom::obs
