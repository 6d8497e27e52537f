/// \file
/// Tests for the sampling profiler (obs/prof.h) and per-request latency
/// attribution (obs/request_timer.h): pure ProfileData aggregation first
/// (platform-independent), then live SIGPROF windows on Linux, then the
/// request/stage timing RAII.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/status.h"
#include "obs/prof.h"
#include "obs/request_timer.h"
#include "obs/trace.h"

namespace hom::obs {
namespace {

// ---------------------------------------------------------------------------
// ProfileData aggregation (no profiler needed).

ProfileData MakeData() {
  ProfileData data;
  data.hz = 100.0;  // period = 10 ms per sample
  data.frames = {"main", "hom::Work", "hom::Leaf"};
  ProfileSample deep;
  deep.stack = {0, 1, 2};
  ProfileSample shallow;
  shallow.stack = {0, 1};
  data.samples = {deep, deep, shallow};
  return data;
}

TEST(ProfileDataTest, FoldedCountsAggregateIdenticalStacks) {
  ProfileData data = MakeData();
  auto counts = data.FoldedCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at("main;hom::Work;hom::Leaf"), 2u);
  EXPECT_EQ(counts.at("main;hom::Work"), 1u);
}

TEST(ProfileDataTest, ToFoldedEmitsOneSortedLinePerStack) {
  std::string folded = MakeData().ToFolded();
  EXPECT_EQ(folded, "main;hom::Work 1\nmain;hom::Work;hom::Leaf 2\n");
}

TEST(ProfileDataTest, EmptyStackFoldsToUnknown) {
  ProfileData data;
  data.hz = 99.0;
  data.samples.emplace_back();
  EXPECT_EQ(data.ToFolded(), "(unknown) 1\n");
}

TEST(ProfileDataTest, SummaryJsonCarriesTheWindowShape) {
  ProfileData data = MakeData();
  data.duration_seconds = 0.5;
  data.dropped = 7;
  data.truncated = 1;
  JsonValue json = data.SummaryJson();
  std::string dump = json.Dump();
  EXPECT_NE(dump.find("\"samples\":3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"dropped\":7"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"truncated\":1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"distinct_stacks\":2"), std::string::npos) << dump;
}

TEST(ProfileDataTest, MergeFromReintersFrameTables) {
  ProfileData a = MakeData();
  ProfileData b;
  b.hz = 100.0;
  b.duration_seconds = 1.0;
  b.frames = {"main", "hom::Other"};
  ProfileSample s;
  s.stack = {0, 1};
  b.samples = {s};
  a.MergeFrom(b);
  auto counts = a.FoldedCounts();
  EXPECT_EQ(counts.at("main;hom::Other"), 1u);  // not main;hom::Work
  EXPECT_EQ(counts.at("main;hom::Work;hom::Leaf"), 2u);
  EXPECT_EQ(a.samples.size(), 4u);
}

TEST(ProfileDataTest, MergeIntoEmptyAdoptsHz) {
  ProfileData merged;
  merged.MergeFrom(MakeData());
  EXPECT_DOUBLE_EQ(merged.hz, 100.0);
  EXPECT_DOUBLE_EQ(merged.sample_period_seconds(), 0.01);
}

TEST(AttributeSamplesTest, SamplesLandOnTheirPhasePath) {
  ProfileData data;
  data.hz = 100.0;
  ProfileSample in_fit;
  in_fit.phases = {"fit"};
  ProfileSample in_inner;
  in_inner.phases = {"fit", "inner"};
  ProfileSample unattributed;  // no span open when sampled
  data.samples = {in_fit, in_fit, in_inner, unattributed};

  PhaseNode tree;
  tree.name = "build";
  tree.count = 1;
  AttributeSamplesToPhases(data, &tree);

  const PhaseNode* fit = tree.FindChild("fit");
  ASSERT_NE(fit, nullptr);
  EXPECT_DOUBLE_EQ(fit->self_cpu_seconds, 0.02);  // 2 samples x 10 ms
  const PhaseNode* inner = fit->FindChild("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_DOUBLE_EQ(inner->self_cpu_seconds, 0.01);
  const PhaseNode* unknown = tree.FindChild("(unattributed)");
  ASSERT_NE(unknown, nullptr);
  EXPECT_DOUBLE_EQ(unknown->self_cpu_seconds, 0.01);
  // Attribution is statistical: it refines existing wall/cpu numbers but
  // never touches them.
  EXPECT_DOUBLE_EQ(tree.self_cpu_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Live profiler windows. SIGPROF + timer_create are Linux-only; elsewhere
// Start() reports NotImplemented and that contract is what we test.

// Burns CPU long enough for a sampling window to see us. Returns a value
// derived from the work so the loop cannot be optimized away.
uint64_t BurnCpu(double seconds) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  volatile uint64_t acc = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1000; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  return acc;
}

}  // namespace

// The leaf of SamplingProfilerTest.SamplesEndInTheInterruptedFunction.
// Outside the anonymous namespace so dladdr can name it, and kept from
// being inlined or cloned under a local symbol: its name must show in
// the profile.
[[gnu::noipa]] uint64_t ProfiledLeafBurn(double seconds) {
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  volatile uint64_t acc = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) acc = acc * 6364136223846793005ull + 1;
  }
  return acc;
}

namespace {

#if defined(__linux__)

TEST(SamplingProfilerTest, SamplesEndInTheInterruptedFunction) {
  // The handler and the sigreturn trampoline sit innermost on every raw
  // backtrace; a sample must be charged to the function the signal
  // interrupted instead. Retried because a loaded machine can leave a
  // CPU-clock window with few samples.
  size_t samples = 0;
  size_t in_leaf = 0;
  for (int attempt = 0; attempt < 3 && samples < 20; ++attempt) {
    ProfileOptions options;
    options.hz = 500.0;
    ASSERT_TRUE(SamplingProfiler::Global().Start(options).ok());
    ProfiledLeafBurn(0.3);
    ProfileData data = SamplingProfiler::Global().Collect();
    for (const ProfileSample& sample : data.samples) {
      ++samples;
      ASSERT_FALSE(sample.stack.empty());
      const std::string& leaf = data.frames[sample.stack.back()];
      EXPECT_EQ(leaf.find("hom_prof_signal_handler"), std::string::npos);
      if (leaf.find("ProfiledLeafBurn") != std::string::npos) ++in_leaf;
    }
  }
  ASSERT_GT(samples, 0u);
  EXPECT_GT(2 * in_leaf, samples) << in_leaf << " of " << samples;
}

TEST(SamplingProfilerTest, CapturesABusyLoop) {
  ProfileOptions options;
  options.hz = 500.0;  // dense sampling keeps the busy window short
  ASSERT_TRUE(SamplingProfiler::Global().Start(options).ok());
  EXPECT_TRUE(SamplingProfiler::Global().running());
  BurnCpu(0.4);
  ProfileData data = SamplingProfiler::Global().Collect();
  EXPECT_FALSE(SamplingProfiler::Global().running());
  ASSERT_FALSE(data.empty());
  EXPECT_GT(data.duration_seconds, 0.0);
  EXPECT_DOUBLE_EQ(data.hz, 500.0);
  // Every stack symbolizes to something and the folded form is well formed
  // ("frame[;frame...] count" per line).
  std::string folded = data.ToFolded();
  ASSERT_FALSE(folded.empty());
  for (size_t pos = 0; pos < folded.size();) {
    size_t eol = folded.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string line = folded.substr(pos, eol - pos);
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    pos = eol + 1;
  }
}

TEST(SamplingProfilerTest, PhaseStackRidesAlong) {
  ProfileOptions options;
  options.hz = 500.0;
  ASSERT_TRUE(SamplingProfiler::Global().Start(options).ok());
  {
    // Spans publish to the signal-visible phase stack only while a tracer
    // is active on the thread (exactly how instrumented builds run).
    PhaseTracer tracer("prof_test");
    ScopedTracer active(&tracer);
    ScopedSpan span("prof_test_phase");
    BurnCpu(0.4);
  }
  ProfileData data = SamplingProfiler::Global().Collect();
  ASSERT_FALSE(data.empty());
  size_t tagged = 0;
  for (const ProfileSample& sample : data.samples) {
    for (const std::string& phase : sample.phases) {
      if (phase == "prof_test_phase") ++tagged;
    }
  }
  EXPECT_GT(tagged, 0u);
}

TEST(SamplingProfilerTest, SecondStartIsFailedPrecondition) {
  ASSERT_TRUE(SamplingProfiler::Global().Start({}).ok());
  Status again = SamplingProfiler::Global().Start({});
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  SamplingProfiler::Global().Collect();
  // And once collected, a new window can start.
  EXPECT_TRUE(SamplingProfiler::Global().Start({}).ok());
  SamplingProfiler::Global().Collect();
}

TEST(SamplingProfilerTest, StopIsIdempotentAndCollectResets) {
  ASSERT_TRUE(SamplingProfiler::Global().Start({}).ok());
  SamplingProfiler::Global().Stop();
  SamplingProfiler::Global().Stop();
  SamplingProfiler::Global().Collect();
  ProfileData drained = SamplingProfiler::Global().Collect();
  EXPECT_TRUE(drained.empty());
}

TEST(ProfilezTest, BusyProfilerAnswers409) {
  ASSERT_TRUE(SamplingProfiler::Global().Start({}).ok());
  HttpRequest request;
  request.path = "/profilez";
  request.query["seconds"] = "0.05";
  HttpResponse response = HandleProfilezRequest(request);
  EXPECT_EQ(response.status, 409);
  SamplingProfiler::Global().Collect();
}

TEST(ProfilezTest, WindowAnswersFoldedText) {
  // A loaded machine can deschedule the process for most of a short wall
  // window, leaving the CPU-clock sampler zero samples and an empty body
  // — retry a few windows before calling the endpoint broken.
  HttpResponse response;
  for (int attempt = 0; attempt < 3; ++attempt) {
    HttpRequest request;
    request.path = "/profilez";
    request.query["seconds"] = "0.2";
    request.query["hz"] = "500";
    std::thread scraper(
        [&] { response = HandleProfilezRequest(request); });
    BurnCpu(0.45);  // keep the process busy across the whole window
    scraper.join();
    if (response.status == 200 && !response.body.empty()) break;
  }
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("text/plain"), std::string::npos);
  EXPECT_FALSE(response.body.empty());
}

#else  // !defined(__linux__)

TEST(SamplingProfilerTest, UnsupportedPlatformReportsNotImplemented) {
  Status st = SamplingProfiler::Global().Start({});
  EXPECT_EQ(st.code(), StatusCode::kNotImplemented);
  EXPECT_TRUE(SamplingProfiler::Global().Collect().empty());
}

TEST(ProfilezTest, UnsupportedPlatformAnswers501) {
  HttpRequest request;
  request.path = "/profilez";
  HttpResponse response = HandleProfilezRequest(request);
  EXPECT_EQ(response.status, 501);
}

#endif  // defined(__linux__)

// ---------------------------------------------------------------------------
// RequestTimer: slow-K retention and the stage RAII.

TEST(RequestTimerTest, RetainsSlowestKSlowestFirst) {
  RequestTimer::Options options;
  options.slowest_k = 3;
  RequestTimer timer(options);
  std::array<double, kNumRequestStages> stages{};
  for (int i = 1; i <= 10; ++i) {
    stages[static_cast<size_t>(RequestStage::kPredict)] = i * 1e-3;
    timer.RecordRequest(i, i * 1e-3, stages);
  }
  EXPECT_EQ(timer.requests(), 10u);
  auto slowest = timer.Slowest();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].record, 10);
  EXPECT_EQ(slowest[1].record, 9);
  EXPECT_EQ(slowest[2].record, 8);
  EXPECT_NEAR(slowest[0].total_us, 10e3, 1e-6);
  EXPECT_NEAR(
      slowest[0].stage_us[static_cast<size_t>(RequestStage::kPredict)], 10e3,
      1e-6);
}

TEST(RequestTimerTest, SlowestJsonNamesTheStages) {
  RequestTimer timer;
  std::array<double, kNumRequestStages> stages{};
  stages[static_cast<size_t>(RequestStage::kParse)] = 0.5e-3;
  stages[static_cast<size_t>(RequestStage::kObserve)] = 1.5e-3;
  timer.RecordRequest(42, 2e-3, stages);
  std::string dump = timer.SlowestJson().Dump();
  EXPECT_NE(dump.find("\"record\":42"), std::string::npos) << dump;
  EXPECT_NE(dump.find("parse"), std::string::npos) << dump;
  EXPECT_NE(dump.find("observe"), std::string::npos) << dump;
}

TEST(RequestTimerTest, ScopedTimingAttributesStages) {
  RequestTimer timer;
  {
    ScopedRequestTimer request(&timer, 7);
    {
      ScopedRequestStage predict(RequestStage::kPredict);
      BurnCpu(0.01);
      {
        // Nesting: observe time must not double-count into predict.
        ScopedRequestStage observe(RequestStage::kObserve);
        BurnCpu(0.01);
      }
    }
  }
  ASSERT_EQ(timer.requests(), 1u);
  auto slowest = timer.Slowest();
  ASSERT_EQ(slowest.size(), 1u);
  const auto& slow = slowest[0];
  EXPECT_EQ(slow.record, 7);
  double predict_us =
      slow.stage_us[static_cast<size_t>(RequestStage::kPredict)];
  double observe_us =
      slow.stage_us[static_cast<size_t>(RequestStage::kObserve)];
  EXPECT_GT(predict_us, 5e3);
  EXPECT_GT(observe_us, 5e3);
  // Stages partition the total: their sum cannot exceed it.
  EXPECT_LE(predict_us + observe_us, slow.total_us * 1.01 + 100.0);
}

TEST(RequestTimerTest, TimesOneRequestInSixtyFour) {
  static_assert(RequestTimer::kRequestSamplePeriod == 64);
  RequestTimer timer;
  for (int64_t record = 1; record <= 130; ++record) {
    ScopedRequestTimer request(&timer, record);
    ScopedRequestStage predict(RequestStage::kPredict);
  }
  EXPECT_EQ(timer.requests(), 130u);
  std::vector<int64_t> timed;
  for (const RequestTimer::SlowRequest& slow : timer.Slowest()) {
    timed.push_back(slow.record);
  }
  std::sort(timed.begin(), timed.end());
  EXPECT_EQ(timed, (std::vector<int64_t>{1, 65, 129}));
}

TEST(RequestTimerTest, AlwaysTimeOverridesTheSample) {
  RequestTimer timer;
  { ScopedRequestTimer first(&timer, 1); }  // sampled: the 1st request
  { ScopedRequestTimer skipped(&timer, 2); }
  {
    ScopedRequestTimer checkpoint(&timer, 3, /*always_time=*/true);
    ScopedRequestStage stage(RequestStage::kCheckpoint);
    BurnCpu(0.001);
  }
  EXPECT_EQ(timer.requests(), 3u);
  auto slowest = timer.Slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].record, 3);
  EXPECT_GT(
      slowest[0].stage_us[static_cast<size_t>(RequestStage::kCheckpoint)],
      0.0);
}

TEST(RequestTimerTest, UnsampledRequestStillBlocksNesting) {
  RequestTimer outer_timer;
  RequestTimer inner_timer;
  { ScopedRequestTimer first(&outer_timer, 1); }
  {
    ScopedRequestTimer outer(&outer_timer, 2);  // counted, not timed
    ScopedRequestTimer inner(&inner_timer, 3);  // no-op: request open
  }
  EXPECT_EQ(outer_timer.requests(), 2u);
  EXPECT_EQ(outer_timer.Slowest().size(), 1u);
  EXPECT_EQ(inner_timer.requests(), 0u);
}

TEST(RequestTimerTest, CountsRequestsFromSeveralThreads) {
  RequestTimer timer;
  auto serve = [&timer] {
    for (int64_t record = 1; record <= 1000; ++record) {
      ScopedRequestTimer request(&timer, record);
      ScopedRequestStage predict(RequestStage::kPredict);
    }
  };
  std::thread a(serve);
  std::thread b(serve);
  a.join();
  b.join();
  EXPECT_EQ(timer.requests(), 2000u);
  // 2000 requests at one in 64: ordinals 0, 64, ..., 1984 are timed.
  EXPECT_EQ(timer.Slowest().size(), 8u);  // slowest_k of the 32 timed
}

TEST(RequestTimerTest, StageOutsideRequestIsANoOp) {
  RequestTimer timer;
  {
    ScopedRequestStage predict(RequestStage::kPredict);
    BurnCpu(0.001);
  }
  EXPECT_EQ(timer.requests(), 0u);
}

TEST(RequestTimerTest, NestedRequestTimersDoNotDoubleCount) {
  RequestTimer outer_timer;
  RequestTimer inner_timer;
  {
    ScopedRequestTimer outer(&outer_timer, 1);
    ScopedRequestTimer inner(&inner_timer, 2);  // no-op: already timing
  }
  EXPECT_EQ(outer_timer.requests(), 1u);
  EXPECT_EQ(inner_timer.requests(), 0u);
}

TEST(RequestTimerTest, NullTimerScopedIsANoOp) {
  ScopedRequestTimer request(nullptr, 1);
  ScopedRequestStage stage(RequestStage::kParse);
}

TEST(RequestStageTest, NamesAreStable) {
  EXPECT_EQ(RequestStageName(RequestStage::kParse), "parse");
  EXPECT_EQ(RequestStageName(RequestStage::kSanitize), "sanitize");
  EXPECT_EQ(RequestStageName(RequestStage::kPredict), "predict");
  EXPECT_EQ(RequestStageName(RequestStage::kObserve), "observe");
  EXPECT_EQ(RequestStageName(RequestStage::kCheckpoint), "checkpoint");
}

}  // namespace
}  // namespace hom::obs
