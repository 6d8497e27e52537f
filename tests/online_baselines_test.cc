// Tests for the static / sliding-window "chasing trends" reference
// points.

#include <gtest/gtest.h>

#include "baselines/simple.h"
#include "classifiers/decision_tree.h"
#include "common/rng.h"
#include "eval/prequential.h"
#include "streams/stagger.h"

namespace hom {
namespace {

Record StaggerRecord(Rng* rng, int concept_id) {
  Record r({static_cast<double>(rng->NextBounded(3)),
            static_cast<double>(rng->NextBounded(3)),
            static_cast<double>(rng->NextBounded(3))},
           0);
  r.label = StaggerGenerator::TrueLabel(r, concept_id);
  return r;
}

// --------------------------------------------------------------- Static

TEST(StaticBaselineTest, FreezesAfterBootstrap) {
  StaticBaseline baseline(StaggerGenerator::MakeSchema(),
                          DecisionTree::Factory(), 500);
  Rng rng(6);
  EXPECT_FALSE(baseline.trained());
  for (int i = 0; i < 500; ++i) {
    baseline.ObserveLabeled(StaggerRecord(&rng, 0));
  }
  EXPECT_TRUE(baseline.trained());
  // Accurate on the bootstrap concept...
  int errors_same = 0;
  int errors_other = 0;
  for (int i = 0; i < 500; ++i) {
    Record same = StaggerRecord(&rng, 0);
    Record other = StaggerRecord(&rng, 2);
    if (baseline.Predict(same) != same.label) ++errors_same;
    if (baseline.Predict(other) != other.label) ++errors_other;
    // Feeding more data must not change anything (frozen).
    baseline.ObserveLabeled(other);
  }
  EXPECT_LT(errors_same, 25);
  // ...and stale on a different concept: the decay the paper argues about.
  EXPECT_GT(errors_other, 100);
}

// ------------------------------------------------------- SlidingWindow

TEST(SlidingWindowTest, RetrainsPeriodically) {
  SlidingWindowBaseline baseline(StaggerGenerator::MakeSchema(),
                                 DecisionTree::Factory(), 400, 100);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    baseline.ObserveLabeled(StaggerRecord(&rng, 0));
  }
  EXPECT_GE(baseline.retrain_count(), 5u);
}

TEST(SlidingWindowTest, AdaptsToShiftWithinAWindow) {
  SlidingWindowBaseline baseline(StaggerGenerator::MakeSchema(),
                                 DecisionTree::Factory(), 400, 100);
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    baseline.ObserveLabeled(StaggerRecord(&rng, 0));
  }
  // Shift; after > window_size records of the new concept it must be good.
  for (int i = 0; i < 600; ++i) {
    baseline.ObserveLabeled(StaggerRecord(&rng, 2));
  }
  int errors = 0;
  for (int i = 0; i < 500; ++i) {
    Record r = StaggerRecord(&rng, 2);
    Record x = r;
    x.label = kUnlabeled;
    if (baseline.Predict(x) != r.label) ++errors;
    baseline.ObserveLabeled(r);
  }
  EXPECT_LT(errors, 25);
}

TEST(SlidingWindowTest, PrequentialOnEvolvingStreamBeatsStatic) {
  StaggerConfig sc;
  sc.lambda = 0.002;
  StaggerGenerator gen(9, sc);
  Dataset stream = gen.Generate(20000);

  StaticBaseline frozen(StaggerGenerator::MakeSchema(),
                        DecisionTree::Factory(), 500);
  SlidingWindowBaseline window(StaggerGenerator::MakeSchema(),
                               DecisionTree::Factory(), 400, 100);
  PrequentialResult f = RunPrequential(&frozen, stream);
  PrequentialResult w = RunPrequential(&window, stream);
  // Adapting beats freezing on an evolving stream — but both are well
  // above the high-order model's ~0.002 (see integration tests).
  EXPECT_LT(w.error_rate(), f.error_rate());
}

}  // namespace
}  // namespace hom
