// Tests for the evaluation harness: the prequential protocol (labels must
// stay hidden at prediction time), the change-aligned trace averaging, and
// the per-concept online accounting fed from ActiveConcept().

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "classifiers/decision_tree.h"
#include "common/rng.h"
#include "eval/online_stats.h"
#include "eval/prequential.h"
#include "eval/stream_classifier.h"
#include "eval/trace.h"
#include "highorder/builder.h"
#include "highorder/serialization.h"
#include "obs/event_journal.h"
#include "obs/request_timer.h"
#include "streams/intrusion.h"
#include "streams/stagger.h"

namespace hom {
namespace {

/// Spy classifier that records exactly what the harness shows it.
class SpyClassifier : public StreamClassifier {
 public:
  explicit SpyClassifier(size_t num_classes) : num_classes_(num_classes) {}

  Label Predict(const Record& x) override {
    ++predictions_;
    saw_labeled_predict_ |= x.is_labeled();
    return 0;
  }
  void ObserveLabeled(const Record& y) override {
    ++observations_;
    saw_unlabeled_observe_ |= !y.is_labeled();
  }
  std::string name() const override { return "spy"; }
  size_t num_classes() const override { return num_classes_; }

  size_t predictions_ = 0;
  size_t observations_ = 0;
  bool saw_labeled_predict_ = false;
  bool saw_unlabeled_observe_ = false;

 private:
  size_t num_classes_;
};

Dataset LabeledStream(size_t n) {
  StaggerGenerator gen(1);
  return gen.Generate(n);
}

TEST(PrequentialTest, HidesLabelsAtPredictionTime) {
  Dataset test = LabeledStream(500);
  SpyClassifier spy(2);
  PrequentialResult result = RunPrequential(&spy, test);
  EXPECT_FALSE(spy.saw_labeled_predict_);   // x_t arrives unlabeled
  EXPECT_FALSE(spy.saw_unlabeled_observe_); // y_t arrives labeled
  EXPECT_EQ(spy.predictions_, 500u);
  EXPECT_EQ(spy.observations_, 500u);
  EXPECT_EQ(result.num_records, 500u);
}

TEST(PrequentialTest, ErrorRateOfConstantPredictor) {
  Dataset test = LabeledStream(2000);
  size_t zeros = test.ClassCounts()[0];
  SpyClassifier spy(2);  // always predicts 0
  PrequentialResult result = RunPrequential(&spy, test);
  EXPECT_NEAR(result.error_rate(),
              1.0 - static_cast<double>(zeros) / 2000.0, 1e-12);
}

TEST(PrequentialTest, TraceRecordsPerRecordErrors) {
  Dataset test = LabeledStream(100);
  SpyClassifier spy(2);
  PrequentialOptions options;
  options.record_trace = true;
  PrequentialResult result = RunPrequential(&spy, test, options);
  ASSERT_EQ(result.errors.size(), 100u);
  size_t errors = 0;
  for (uint8_t e : result.errors) errors += e;
  EXPECT_EQ(errors, result.num_errors);
}

TEST(PrequentialTest, LabeledFractionSubsamplesObservations) {
  Dataset test = LabeledStream(4000);
  SpyClassifier spy(2);
  PrequentialOptions options;
  options.labeled_fraction = 0.25;
  RunPrequential(&spy, test, options);
  EXPECT_EQ(spy.predictions_, 4000u);  // every record still predicted
  EXPECT_NEAR(static_cast<double>(spy.observations_), 1000.0, 120.0);
}

TEST(PrequentialTest, EmitsWindowErrorEventsWhenJournalActive) {
  Dataset test = LabeledStream(1050);
  SpyClassifier spy(2);
  PrequentialOptions options;
  options.journal_error_window = 500;
  obs::EventJournal journal;
  {
    obs::ScopedJournal scoped(&journal);
    RunPrequential(&spy, test, options);
  }
  // Two full 500-record blocks plus the 50-record ragged tail.
  std::vector<obs::Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, obs::EventType::kWindowError);
  EXPECT_EQ(events[0].source, "prequential");
  EXPECT_EQ(events[0].record, 500);
  EXPECT_EQ(events[1].record, 1000);
  EXPECT_EQ(events[2].record, 1050);
  // The spy always predicts 0, so each block error is the fraction of 1s.
  EXPECT_GE(events[0].value, 0.0);
  EXPECT_LE(events[0].value, 1.0);
}

TEST(PrequentialTest, ConceptStatsTrackedOnRequest) {
  Dataset test = LabeledStream(300);
  SpyClassifier spy(2);
  PrequentialOptions options;
  options.track_concept_stats = true;
  PrequentialResult result = RunPrequential(&spy, test, options);
  ASSERT_NE(result.concept_stats, nullptr);
  EXPECT_EQ(result.concept_stats->total_records(), 300u);
  // SpyClassifier never reports a concept, so everything lands on -1.
  ASSERT_EQ(result.concept_stats->concepts().size(), 1u);
  EXPECT_EQ(result.concept_stats->concepts().begin()->first, -1);
}

TEST(PrequentialTest, CheckpointingRecordsAreAlwaysTimed) {
  Dataset test = LabeledStream(30);
  SpyClassifier spy(2);
  obs::RequestTimer request_timer;
  PrequentialOptions options;
  options.request_timer = &request_timer;
  options.checkpoint_every = 10;
  size_t checkpoints = 0;
  options.on_checkpoint = [&](const PrequentialProgress&) { ++checkpoints; };
  RunPrequential(&spy, test, options);
  EXPECT_EQ(checkpoints, 3u);
  EXPECT_EQ(request_timer.requests(), 30u);
  // The sampled first record, then every checkpointing one.
  std::vector<int64_t> timed;
  for (const obs::RequestTimer::SlowRequest& slow : request_timer.Slowest()) {
    timed.push_back(slow.record);
    if (slow.record % 10 == 0) {
      EXPECT_GT(slow.stage_us[static_cast<size_t>(
                    obs::RequestStage::kCheckpoint)],
                0.0);
    }
  }
  std::sort(timed.begin(), timed.end());
  EXPECT_EQ(timed, (std::vector<int64_t>{1, 10, 20, 30}));
}

/// A journal's events without what timing may change: slow_request events
/// and the seq/t_us stamps.
std::vector<std::tuple<obs::EventType, std::string, int64_t, int64_t,
                       int64_t, double>>
UntimedEvents(const obs::EventJournal& journal) {
  std::vector<std::tuple<obs::EventType, std::string, int64_t, int64_t,
                         int64_t, double>>
      events;
  for (const obs::Event& e : journal.Snapshot()) {
    if (e.type == obs::EventType::kSlowRequest) continue;
    events.emplace_back(e.type, e.source, e.record, e.from, e.to, e.value);
  }
  return events;
}

class RequestTimerOutputTest : public ::testing::TestWithParam<double> {};

TEST_P(RequestTimerOutputTest, TimingChangesNoOutput) {
  IntrusionGenerator gen(23);
  Dataset history = gen.Generate(8000);
  Dataset test = gen.Generate(6000);
  HighOrderModelBuilder builder(DecisionTree::Factory());
  Rng rng(5);
  auto built = builder.Build(history, &rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::stringstream model_bytes;
  ASSERT_TRUE(SaveHighOrderModel(&model_bytes, **built).ok());

  struct Run {
    PrequentialResult result;
    obs::EventJournal journal;
  };
  auto serve = [&](obs::RequestTimer* request_timer, Run* run) {
    std::stringstream in(model_bytes.str());
    auto model = LoadHighOrderModel(&in);
    ASSERT_TRUE(model.ok());
    PrequentialOptions options;
    options.labeled_fraction = GetParam();
    options.record_trace = true;
    options.track_concept_stats = true;
    options.calibration_sample_period = 97;
    options.request_timer = request_timer;
    obs::ScopedJournal scoped(&run->journal);
    run->result = RunPrequential(model->get(), test, options);
  };
  Run untimed, timed;
  serve(nullptr, &untimed);
  obs::RequestTimer request_timer;
  serve(&request_timer, &timed);

  EXPECT_EQ(request_timer.requests(), test.size());
  EXPECT_EQ(timed.result.num_records, untimed.result.num_records);
  EXPECT_EQ(timed.result.num_errors, untimed.result.num_errors);
  EXPECT_EQ(timed.result.errors, untimed.result.errors);
  EXPECT_EQ(timed.result.window_errors_carry,
            untimed.result.window_errors_carry);
  EXPECT_EQ(timed.result.window_fill_carry, untimed.result.window_fill_carry);
  EXPECT_EQ(timed.result.concept_stats->ToJson().Dump(),
            untimed.result.concept_stats->ToJson().Dump());
  EXPECT_EQ(UntimedEvents(timed.journal), UntimedEvents(untimed.journal));
  EXPECT_FALSE(UntimedEvents(untimed.journal).empty());
}

INSTANTIATE_TEST_SUITE_P(LabeledFractions, RequestTimerOutputTest,
                         ::testing::Values(1.0, 0.1));

// ------------------------------------------------------ OnlineConceptStats

TEST(OnlineStatsTest, AttributesRecordsAndSwitchesPerConcept) {
  OnlineConceptStats stats(/*num_classes=*/2, /*window=*/4);
  // Concept 0 holds 3 records (1 error), then concept 1 holds 2 (all wrong),
  // then back to concept 0 for 1 correct record.
  stats.Observe(0, 0, 0);
  stats.Observe(0, 1, 1);
  stats.Observe(0, 1, 0);
  stats.Observe(1, 0, 1);
  stats.Observe(1, 1, 0);
  stats.Observe(0, 0, 0);
  EXPECT_EQ(stats.total_records(), 6u);
  EXPECT_EQ(stats.total_switches(), 2u);
  EXPECT_EQ(stats.current_concept(), 0);
  const auto& c0 = stats.concepts().at(0);
  EXPECT_EQ(c0.activations, 2u);
  EXPECT_EQ(c0.records, 4u);
  EXPECT_EQ(c0.errors, 1u);
  EXPECT_DOUBLE_EQ(c0.error_rate(), 0.25);
  const auto& c1 = stats.concepts().at(1);
  EXPECT_EQ(c1.activations, 1u);
  EXPECT_DOUBLE_EQ(c1.error_rate(), 1.0);
  // Confusion for concept 1: both records wrong, truth 0->pred 1, 1->pred 0.
  EXPECT_EQ(c1.confusion[0 * 2 + 1], 1u);
  EXPECT_EQ(c1.confusion[1 * 2 + 0], 1u);
}

TEST(OnlineStatsTest, WindowedErrorRateForgetsOldMistakes) {
  OnlineConceptStats stats(/*num_classes=*/2, /*window=*/3);
  stats.Observe(0, 1, 0);  // wrong
  stats.Observe(0, 1, 0);  // wrong
  stats.Observe(0, 0, 0);
  stats.Observe(0, 0, 0);
  stats.Observe(0, 0, 0);  // ring now holds the last 3 (all correct)
  const auto& c0 = stats.concepts().at(0);
  EXPECT_DOUBLE_EQ(c0.error_rate(), 0.4);
  EXPECT_DOUBLE_EQ(c0.windowed_error_rate(), 0.0);
}

TEST(OnlineStatsTest, ToJsonCarriesTheSnapshot) {
  OnlineConceptStats stats(/*num_classes=*/2, /*window=*/10);
  stats.Observe(3, 1, 0);
  stats.Observe(3, 1, 1);
  obs::JsonValue json = stats.ToJson();
  std::string dumped = json.Dump();
  EXPECT_NE(dumped.find("\"records\":2"), std::string::npos);
  EXPECT_NE(dumped.find("\"3\""), std::string::npos);
  EXPECT_NE(dumped.find("\"mean_dwell\""), std::string::npos);
  EXPECT_NE(dumped.find("\"confusion\""), std::string::npos);
}

// ------------------------------------------------- AlignedTraceAccumulator

TEST(TraceAccumulatorTest, AlignsWindowsAtChangePoint) {
  AlignedTraceAccumulator acc(2, 3);
  // Series: value jumps from 0 to 1 at index 5.
  std::vector<double> series = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  acc.AddSeries(series, {5});
  EXPECT_EQ(acc.num_windows(), 1u);
  std::vector<double> mean = acc.Mean();
  ASSERT_EQ(mean.size(), 5u);
  EXPECT_DOUBLE_EQ(mean[0], 0.0);  // cp-2
  EXPECT_DOUBLE_EQ(mean[1], 0.0);  // cp-1
  EXPECT_DOUBLE_EQ(mean[2], 1.0);  // cp
  EXPECT_DOUBLE_EQ(mean[3], 1.0);
  EXPECT_DOUBLE_EQ(mean[4], 1.0);
}

TEST(TraceAccumulatorTest, AveragesAcrossWindows) {
  AlignedTraceAccumulator acc(1, 1);
  acc.AddSeries(std::vector<double>{0, 1, 0, 0}, {1});
  acc.AddSeries(std::vector<double>{0, 0, 0, 0}, {1});
  EXPECT_EQ(acc.num_windows(), 2u);
  std::vector<double> mean = acc.Mean();
  EXPECT_DOUBLE_EQ(mean[0], 0.0);
  EXPECT_DOUBLE_EQ(mean[1], 0.5);
}

TEST(TraceAccumulatorTest, SkipsWindowsCrossingBoundaries) {
  AlignedTraceAccumulator acc(5, 5);
  std::vector<double> series(8, 0.0);
  acc.AddSeries(series, {2});  // needs 5 before and 5 after; has neither
  EXPECT_EQ(acc.num_windows(), 0u);
}

TEST(TraceAccumulatorTest, SkipsOverlappingChanges) {
  AlignedTraceAccumulator acc(2, 10);
  std::vector<double> series(100, 0.0);
  // Two changes only 4 records apart: the first window would contain the
  // second transition, so it must be dropped; the second is clean.
  acc.AddSeries(series, {20, 24});
  EXPECT_EQ(acc.num_windows(), 1u);
}

TEST(TraceAccumulatorTest, AcceptsUint8Series) {
  AlignedTraceAccumulator acc(1, 2);
  std::vector<uint8_t> series = {0, 0, 1, 1, 0};
  acc.AddSeries(series, {2});
  std::vector<double> mean = acc.Mean();
  EXPECT_DOUBLE_EQ(mean[1], 1.0);
}

}  // namespace
}  // namespace hom
