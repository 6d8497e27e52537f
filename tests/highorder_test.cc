// Unit tests for the high-order model building blocks: block partitioning,
// the candidate-merge heap, the dendrogram final cut, concept statistics
// (Len/Freq/χ), the active-probability tracker, and the online classifier.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "classifiers/decision_tree.h"
#include "classifiers/majority.h"
#include "common/rng.h"
#include "highorder/active_probability.h"
#include "highorder/block_partition.h"
#include "highorder/concept_stats.h"
#include "highorder/dendrogram.h"
#include "highorder/highorder_classifier.h"
#include "highorder/builder.h"
#include "highorder/merge_queue.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "streams/stagger.h"

namespace hom {
namespace {

SchemaPtr TinySchema() {
  return Schema::Make({Attribute::Numeric("x")}, {"a", "b"}).ValueOrDie();
}

Dataset TinyDataset(size_t n) {
  Dataset d(TinySchema());
  for (size_t i = 0; i < n; ++i) {
    d.AppendUnchecked(
        Record({static_cast<double>(i)}, static_cast<Label>(i % 2)));
  }
  return d;
}

// --------------------------------------------------------- BlockPartition

TEST(BlockPartitionTest, EvenSplit) {
  Dataset d = TinyDataset(100);
  auto blocks = PartitionIntoBlocks(DatasetView(&d), 20);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 5u);
  for (const DatasetView& b : *blocks) EXPECT_EQ(b.size(), 20u);
  // Contiguity: block i starts where block i-1 ended.
  EXPECT_EQ((*blocks)[1].row_index(0), 20u);
}

TEST(BlockPartitionTest, RemainderBecomesShortBlock) {
  Dataset d = TinyDataset(50);
  auto blocks = PartitionIntoBlocks(DatasetView(&d), 20);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 3u);
  EXPECT_EQ(blocks->back().size(), 10u);
}

TEST(BlockPartitionTest, SingleRecordTailFoldedIn) {
  Dataset d = TinyDataset(41);
  auto blocks = PartitionIntoBlocks(DatasetView(&d), 20);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 2u);  // 20 + 21, never a 1-record block
  EXPECT_EQ(blocks->back().size(), 21u);
}

TEST(BlockPartitionTest, RejectsBadInputs) {
  Dataset d = TinyDataset(10);
  EXPECT_FALSE(PartitionIntoBlocks(DatasetView(&d), 1).ok());
  Dataset tiny = TinyDataset(1);
  EXPECT_FALSE(PartitionIntoBlocks(DatasetView(&tiny), 5).ok());
}

TEST(BlockPartitionTest, BlockSmallerThanStream) {
  Dataset d = TinyDataset(8);
  auto blocks = PartitionIntoBlocks(DatasetView(&d), 20);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 1u);
  EXPECT_EQ((*blocks)[0].size(), 8u);
}

// ------------------------------------------------------------- MergeQueue

TEST(MergeQueueTest, PopsInDistanceOrder) {
  MergeQueue q;
  for (int32_t id = 0; id < 4; ++id) q.RegisterCluster(id);
  q.Push({3.0, 0, 1, 0.0, nullptr});
  q.Push({1.0, 1, 2, 0.0, nullptr});
  q.Push({2.0, 2, 3, 0.0, nullptr});
  CandidateMerge c;
  ASSERT_TRUE(q.Pop(&c));
  EXPECT_EQ(c.distance, 1.0);
  ASSERT_TRUE(q.Pop(&c));
  EXPECT_EQ(c.distance, 2.0);
}

TEST(MergeQueueTest, LazyRetireSkipsStaleEntries) {
  MergeQueue q;
  for (int32_t id = 0; id < 4; ++id) q.RegisterCluster(id);
  q.Push({1.0, 0, 1, 0.0, nullptr});
  q.Push({2.0, 2, 3, 0.0, nullptr});
  q.Retire(0);
  CandidateMerge c;
  ASSERT_TRUE(q.Pop(&c));
  EXPECT_EQ(c.u, 2);  // the (0,1) entry was stale
  EXPECT_FALSE(q.Pop(&c));
}

TEST(MergeQueueTest, DeterministicTieBreak) {
  MergeQueue q;
  for (int32_t id = 0; id < 4; ++id) q.RegisterCluster(id);
  q.Push({1.0, 2, 3, 0.0, nullptr});
  q.Push({1.0, 0, 1, 0.0, nullptr});
  CandidateMerge c;
  ASSERT_TRUE(q.Pop(&c));
  EXPECT_EQ(c.u, 0);  // lower id pair first on equal distance
}

TEST(MergeQueueTest, EmptyPopReturnsFalse) {
  MergeQueue q;
  CandidateMerge c;
  EXPECT_FALSE(q.Pop(&c));
}

// ------------------------------------------------------------- Dendrogram

ClusterNode NodeWithErrors(double err, double err_star) {
  ClusterNode n;
  n.err = err;
  n.err_star = err_star;
  return n;
}

TEST(DendrogramTest, FinalCutKeepsGoodMerge) {
  Dendrogram d;
  int32_t a = d.AddLeaf(NodeWithErrors(0.3, 0.3));
  int32_t b = d.AddLeaf(NodeWithErrors(0.3, 0.3));
  // Merging helped: Err_w = 0.1 < average of children => Err* = Err.
  int32_t w = d.AddMerge(a, b, NodeWithErrors(0.1, 0.1));
  std::vector<int32_t> cut = d.FinalCut({w});
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0], w);
}

TEST(DendrogramTest, FinalCutSplitsBadMerge) {
  Dendrogram d;
  int32_t a = d.AddLeaf(NodeWithErrors(0.0, 0.0));
  int32_t b = d.AddLeaf(NodeWithErrors(0.0, 0.0));
  // Merging conflicting concepts: Err_w = 0.5 but Err* = 0 (children).
  int32_t w = d.AddMerge(a, b, NodeWithErrors(0.5, 0.0));
  std::vector<int32_t> cut = d.FinalCut({w});
  ASSERT_EQ(cut.size(), 2u);
}

TEST(DendrogramTest, FinalCutRecursesThroughLevels) {
  // ((a+b)+(c+d)): the top merge is bad, the left merge good, the right
  // merge bad => expect {ab, c, d}.
  Dendrogram d;
  int32_t a = d.AddLeaf(NodeWithErrors(0.2, 0.2));
  int32_t b = d.AddLeaf(NodeWithErrors(0.2, 0.2));
  int32_t c = d.AddLeaf(NodeWithErrors(0.0, 0.0));
  int32_t e = d.AddLeaf(NodeWithErrors(0.0, 0.0));
  int32_t ab = d.AddMerge(a, b, NodeWithErrors(0.1, 0.1));
  int32_t ce = d.AddMerge(c, e, NodeWithErrors(0.4, 0.0));
  int32_t root = d.AddMerge(ab, ce, NodeWithErrors(0.5, 0.05));
  std::vector<int32_t> cut = d.FinalCut({root});
  ASSERT_EQ(cut.size(), 3u);
  EXPECT_TRUE(std::find(cut.begin(), cut.end(), ab) != cut.end());
  EXPECT_TRUE(std::find(cut.begin(), cut.end(), c) != cut.end());
  EXPECT_TRUE(std::find(cut.begin(), cut.end(), e) != cut.end());
}

TEST(DendrogramTest, MultipleRootsAreAllCut) {
  Dendrogram d;
  int32_t a = d.AddLeaf(NodeWithErrors(0.1, 0.1));
  int32_t b = d.AddLeaf(NodeWithErrors(0.2, 0.2));
  std::vector<int32_t> cut = d.FinalCut({a, b});
  EXPECT_EQ(cut.size(), 2u);
}

// ------------------------------------------------------------ ConceptStats

TEST(ConceptStatsTest, FromOccurrencesComputesLenAndFreq) {
  // Concept 0: lengths 100 and 200 (2 occurrences); concept 1: length 300.
  std::vector<ConceptOccurrence> occ = {
      {0, 100, 0}, {100, 400, 1}, {400, 600, 0}};
  auto stats = ConceptStats::FromOccurrences(occ, 2);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->mean_length(0), 150.0, 1e-9);
  EXPECT_NEAR(stats->mean_length(1), 300.0, 1e-9);
  EXPECT_NEAR(stats->frequency(0), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats->frequency(1), 1.0 / 3.0, 1e-9);
}

TEST(ConceptStatsTest, ChiRowsSumToOne) {
  auto stats = ConceptStats::FromLengthsAndFrequencies({50, 100, 200},
                                                       {0.5, 0.3, 0.2});
  ASSERT_TRUE(stats.ok());
  for (size_t i = 0; i < 3; ++i) {
    double row = 0;
    for (size_t j = 0; j < 3; ++j) row += stats->Chi(i, j);
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
}

TEST(ConceptStatsTest, ChiMatchesEquationSix) {
  auto stats =
      ConceptStats::FromLengthsAndFrequencies({100, 100}, {0.6, 0.4});
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->Chi(0, 0), 1.0 - 1.0 / 100.0, 1e-12);
  // χ(0,1) = (1/Len_0) * Freq_1 / (1 - Freq_0).
  EXPECT_NEAR(stats->Chi(0, 1), (1.0 / 100.0) * 0.4 / 0.4, 1e-12);
  EXPECT_NEAR(stats->Chi(1, 0), (1.0 / 100.0) * 0.6 / 0.6, 1e-12);
}

TEST(ConceptStatsTest, SingleConceptIsAbsorbing) {
  auto stats = ConceptStats::FromOccurrences({{0, 500, 0}}, 1);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->Chi(0, 0), 1.0, 1e-12);
}

TEST(ConceptStatsTest, DegenerateSoleFrequency) {
  // Two concepts but only one ever occurs: leaving mass spread uniformly.
  auto stats = ConceptStats::FromLengthsAndFrequencies({10, 10}, {1.0, 0.0});
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->Chi(0, 1), 0.1, 1e-12);
  double row = stats->Chi(0, 0) + stats->Chi(0, 1);
  EXPECT_NEAR(row, 1.0, 1e-12);
}

TEST(ConceptStatsTest, PropagatePreservesMass) {
  auto stats = ConceptStats::FromLengthsAndFrequencies({50, 80, 20},
                                                       {0.2, 0.5, 0.3});
  ASSERT_TRUE(stats.ok());
  std::vector<double> p = {0.7, 0.2, 0.1};
  std::vector<double> q = stats->Propagate(p);
  double total = 0;
  for (double v : q) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ConceptStatsTest, ValidationErrors) {
  EXPECT_FALSE(ConceptStats::FromOccurrences({}, 2).ok());
  EXPECT_FALSE(ConceptStats::FromOccurrences({{0, 10, 5}}, 2).ok());
  EXPECT_FALSE(ConceptStats::FromOccurrences({{10, 10, 0}}, 1).ok());
  EXPECT_FALSE(
      ConceptStats::FromLengthsAndFrequencies({0.5}, {1.0}).ok());
  EXPECT_FALSE(
      ConceptStats::FromLengthsAndFrequencies({10, 10}, {0.0, 0.0}).ok());
}

// ------------------------------------------- ActiveProbabilityTracker

ConceptStats ThreeConceptStats() {
  return *ConceptStats::FromLengthsAndFrequencies({100, 100, 100},
                                                  {1.0 / 3, 1.0 / 3, 1.0 / 3});
}

TEST(ActiveProbabilityTest, StartsUniform) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  for (double p : tracker.prior()) EXPECT_NEAR(p, 1.0 / 3, 1e-12);
}

TEST(ActiveProbabilityTest, EvidenceConcentratesPosterior) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  // Concept 1 keeps explaining the labels (ψ = 0.99 vs 0.2 for others).
  for (int t = 0; t < 20; ++t) {
    tracker.Observe({0.2, 0.99, 0.2});
  }
  EXPECT_GT(tracker.posterior()[1], 0.95);
  EXPECT_EQ(tracker.MostLikelyConcept(), 1u);
}

TEST(ActiveProbabilityTest, PosteriorIsDistribution) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  Rng rng(61);
  for (int t = 0; t < 100; ++t) {
    tracker.Observe({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
    double total = 0;
    for (double p : tracker.posterior()) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ActiveProbabilityTest, SwitchesWhenEvidenceSwitches) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  for (int t = 0; t < 50; ++t) tracker.Observe({0.99, 0.1, 0.1});
  ASSERT_EQ(tracker.MostLikelyConcept(), 0u);
  // Concept change: concept 2 starts explaining the data. The Markov
  // leak (1/Len per step) lets the posterior escape concept 0.
  int needed = 0;
  while (tracker.MostLikelyConcept() != 2u && needed < 100) {
    tracker.Observe({0.1, 0.1, 0.99});
    ++needed;
  }
  EXPECT_LT(needed, 20);  // catches up within a few records (Fig. 6)
}

TEST(ActiveProbabilityTest, AllZeroEvidenceFallsBackToPrior) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  tracker.Observe({0.0, 0.0, 0.0});
  double total = 0;
  for (double p : tracker.posterior()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ActiveProbabilityTest, AdvanceWithoutEvidenceDiffuses) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  for (int t = 0; t < 50; ++t) tracker.Observe({0.99, 0.01, 0.01});
  double peak = tracker.posterior()[0];
  for (int t = 0; t < 200; ++t) tracker.AdvanceWithoutEvidence();
  EXPECT_LT(tracker.posterior()[0], peak);  // mass leaks to the others
}

/// Bitwise equality: the cache must hold the very bits a fresh
/// propagation computes, not merely close values.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ActiveProbabilityTest, CachedPropagationMatchesAFreshOne) {
  // Thirteen concepts with uneven lengths and frequencies, the size of
  // the Intrusion model, so the products round differently per concept.
  std::vector<double> lengths, frequencies;
  Rng rng(83);
  for (int c = 0; c < 13; ++c) {
    lengths.push_back(5.0 + 400.0 * rng.NextDouble());
    frequencies.push_back(0.05 + rng.NextDouble());
  }
  auto stats = ConceptStats::FromLengthsAndFrequencies(lengths, frequencies);
  ASSERT_TRUE(stats.ok());
  ActiveProbabilityTracker tracker(*stats);
  std::vector<double> psi(13);
  for (int t = 0; t < 2000; ++t) {
    // Read the cache before the step half the time, so a step that failed
    // to invalidate it would leave a stale vector behind.
    if (rng.NextBernoulli(0.5)) tracker.PropagatedPosterior();
    std::vector<double> before = tracker.posterior();
    for (double& p : psi) p = rng.NextDouble();
    switch (rng.NextBounded(8)) {
      case 0:
        tracker.AdvanceWithoutEvidence();
        EXPECT_TRUE(SameBits(tracker.prior(), stats->Propagate(before)));
        break;
      case 1:
        tracker.ObserveAfterGap(psi, 1 + rng.NextBounded(20));
        break;
      case 2: {
        std::vector<double> prior = tracker.prior();
        std::vector<double> posterior = stats->Propagate(before);
        ASSERT_TRUE(tracker.Restore(prior, posterior).ok());
        break;
      }
      default:
        tracker.Observe(psi);
        EXPECT_TRUE(SameBits(tracker.prior(), stats->Propagate(before)))
            << "step " << t;
        break;
    }
    ASSERT_TRUE(SameBits(tracker.PropagatedPosterior(),
                         stats->Propagate(tracker.posterior())))
        << "step " << t;
  }
  tracker.PropagatedPosterior();
  tracker.Reset();
  EXPECT_TRUE(SameBits(tracker.PropagatedPosterior(),
                       stats->Propagate(tracker.posterior())));
}

TEST(ActiveProbabilityTest, ResetRestoresUniform) {
  ActiveProbabilityTracker tracker(ThreeConceptStats());
  tracker.Observe({0.9, 0.1, 0.1});
  tracker.Reset();
  for (double p : tracker.prior()) EXPECT_NEAR(p, 1.0 / 3, 1e-12);
}

// ------------------------------------------------- HighOrderClassifier

/// A fixed-answer classifier for controlled ensemble tests.
class ConstantClassifier : public Classifier {
 public:
  ConstantClassifier(size_t num_classes, Label answer)
      : num_classes_(num_classes), answer_(answer) {}
  Status Train(const DatasetView&) override { return Status::OK(); }
  Label Predict(const Record&) const override { return answer_; }
  size_t num_classes() const override { return num_classes_; }

 private:
  size_t num_classes_;
  Label answer_;
};

std::vector<ConceptModel> TwoConstantConcepts(double err0, double err1) {
  std::vector<ConceptModel> concepts;
  ConceptModel c0;
  c0.model = std::make_unique<ConstantClassifier>(2, 0);
  c0.error = err0;
  concepts.push_back(std::move(c0));
  ConceptModel c1;
  c1.model = std::make_unique<ConstantClassifier>(2, 1);
  c1.error = err1;
  concepts.push_back(std::move(c1));
  return concepts;
}

ConceptStats TwoConceptStats() {
  return *ConceptStats::FromLengthsAndFrequencies({100, 100}, {0.5, 0.5});
}

TEST(HighOrderClassifierTest, MakeValidatesInputs) {
  SchemaPtr schema = TinySchema();
  EXPECT_FALSE(
      HighOrderClassifier::Make(nullptr, TwoConstantConcepts(0, 0),
                                TwoConceptStats())
          .ok());
  EXPECT_FALSE(HighOrderClassifier::Make(schema, {}, TwoConceptStats()).ok());
  // Count mismatch: 2 models vs 3-concept stats.
  auto three = ConceptStats::FromLengthsAndFrequencies(
      {10, 10, 10}, {0.3, 0.3, 0.4});
  EXPECT_FALSE(HighOrderClassifier::Make(schema, TwoConstantConcepts(0, 0),
                                         *three)
                   .ok());
  auto bad_err = TwoConstantConcepts(1.5, 0.0);
  EXPECT_FALSE(
      HighOrderClassifier::Make(schema, std::move(bad_err), TwoConceptStats())
          .ok());
}

TEST(HighOrderClassifierTest, TracksActiveConceptFromLabels) {
  SchemaPtr schema = TinySchema();
  auto clf = HighOrderClassifier::Make(schema, TwoConstantConcepts(0.05, 0.05),
                                       TwoConceptStats());
  ASSERT_TRUE(clf.ok());
  // Labels are all class 1: only concept 1's constant model is correct.
  Record labeled({0.0}, 1);
  for (int t = 0; t < 10; ++t) (*clf)->ObserveLabeled(labeled);
  Record x({0.0}, kUnlabeled);
  EXPECT_EQ((*clf)->Predict(x), 1);
  EXPECT_GT((*clf)->active_probabilities()[1], 0.9);
}

TEST(HighOrderClassifierTest, EquationTenWeighting) {
  SchemaPtr schema = TinySchema();
  auto clf = HighOrderClassifier::Make(schema, TwoConstantConcepts(0.0, 0.0),
                                       TwoConceptStats());
  ASSERT_TRUE(clf.ok());
  Record x({0.0}, kUnlabeled);
  // Uniform prior: Highorder(l|x) = 0.5 * onehot(0) + 0.5 * onehot(1).
  std::vector<double> proba = (*clf)->PredictProba(x);
  EXPECT_NEAR(proba[0], 0.5, 1e-9);
  EXPECT_NEAR(proba[1], 0.5, 1e-9);
}

TEST(HighOrderClassifierTest, PrunedPredictionMatchesExhaustive) {
  // Property: Section III-C pruning never changes the predicted label.
  Rng rng(67);
  StaggerGenerator gen(68);
  Dataset data = gen.Generate(2000);

  auto make = [&](bool prune) {
    std::vector<ConceptModel> concepts;
    for (int c = 0; c < 3; ++c) {
      Dataset d(StaggerGenerator::MakeSchema());
      Rng crng(static_cast<uint64_t>(100 + c));
      for (int i = 0; i < 300; ++i) {
        Record r({static_cast<double>(crng.NextBounded(3)),
                  static_cast<double>(crng.NextBounded(3)),
                  static_cast<double>(crng.NextBounded(3))},
                 0);
        r.label = StaggerGenerator::TrueLabel(r, c);
        d.AppendUnchecked(r);
      }
      ConceptModel cm;
      auto tree = std::make_unique<DecisionTree>(d.schema());
      EXPECT_TRUE(tree->Train(DatasetView(&d)).ok());
      cm.model = std::move(tree);
      cm.error = 0.02;
      concepts.push_back(std::move(cm));
    }
    auto stats = ConceptStats::FromLengthsAndFrequencies(
        {1000, 1000, 1000}, {1.0 / 3, 1.0 / 3, 1.0 / 3});
    HighOrderOptions options;
    options.prune_prediction = prune;
    return std::move(HighOrderClassifier::Make(StaggerGenerator::MakeSchema(),
                                               std::move(concepts), *stats,
                                               options))
        .ValueOrDie();
  };

  auto pruned = make(true);
  auto exhaustive = make(false);
  for (const Record& r : data.records()) {
    Record x = r;
    x.label = kUnlabeled;
    ASSERT_EQ(pruned->Predict(x), exhaustive->Predict(x));
    pruned->ObserveLabeled(r);
    exhaustive->ObserveLabeled(r);
  }
  // And pruning must actually save base-model evaluations once the
  // concept is clear.
  EXPECT_LT(pruned->base_evaluations(), exhaustive->base_evaluations());
}

// --------------------------------------------------------- Observability

/// Two scripted Stagger concepts in long alternating runs; long
/// single-concept stretches give step 1 the unbalanced merges that trigger
/// classifier reuse, and the cross-concept merges it must reject feed the
/// early-termination freeze.
Dataset TwoConceptHistory(size_t total, uint64_t seed) {
  Dataset d(StaggerGenerator::MakeSchema());
  Rng rng(seed);
  for (size_t i = 0; i < total; ++i) {
    int concept_id = (i / 1500) % 2 == 0 ? 0 : 1;
    Record r({static_cast<double>(rng.NextBounded(3)),
              static_cast<double>(rng.NextBounded(3)),
              static_cast<double>(rng.NextBounded(3))},
             0);
    r.label = StaggerGenerator::TrueLabel(r, concept_id);
    d.AppendUnchecked(r);
  }
  return d;
}

TEST(BuildReportObservabilityTest, BuildPopulatesPhaseTree) {
  Dataset history = TwoConceptHistory(3000, 120);
  HighOrderModelBuilder builder(DecisionTree::Factory());
  Rng rng(121);
  HighOrderBuildReport report;
  auto clf = builder.Build(history, &rng, &report);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();

  EXPECT_EQ(report.phases.name, "build");
  EXPECT_GT(report.phases.seconds, 0.0);
  for (const char* phase :
       {"block_partition", "step1_chunk_merging", "step2_concept_merging",
        "final_cut", "hmm_fitting", "classifier_training"}) {
    const obs::PhaseNode* child = report.phases.FindChild(phase);
    ASSERT_NE(child, nullptr) << "missing phase: " << phase;
    EXPECT_GE(child->count, 1u) << phase;
    EXPECT_GE(child->seconds, 0.0) << phase;
  }
  // Children are real sub-phases: none can exceed the whole build.
  for (const obs::PhaseNode& child : report.phases.children) {
    EXPECT_LE(child.seconds, report.phases.seconds + 1e-9) << child.name;
  }
}

#ifndef HOM_DISABLE_METRICS

TEST(BuildReportObservabilityTest, OptimizationCountersFire) {
  Dataset history = TwoConceptHistory(6000, 122);
  HighOrderBuildConfig config;
  // Make the Section II-D optimizations eager enough to observe on a small
  // stream: reuse on mildly unbalanced merges, freeze clusters early.
  config.clustering.reuse_ratio = 4.0;
  config.clustering.early_stop_min_size = 100;
  config.clustering.early_stop_ratio = 1.05;
  config.clustering.early_stop_z = 0.0;
  HighOrderModelBuilder builder(DecisionTree::Factory(), config);
  Rng rng(123);
  HighOrderBuildReport report;
  auto clf = builder.Build(history, &rng, &report);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();

  auto counter = [&report](const char* name) -> uint64_t {
    auto it = report.counters.find(name);
    return it == report.counters.end() ? 0 : it->second;
  };
  // The per-phase / per-step breakdowns are labeled families; the report's
  // flat counter map keys them by SeriesKey::ToString().
  EXPECT_GT(counter("hom.cluster.classifiers_trained{phase=\"leaf\"}"), 0u);
  EXPECT_GT(counter("hom.cluster.classifiers_reused{phase=\"score\"}") +
                counter("hom.cluster.classifiers_reused{phase=\"merge\"}"),
            0u);
  EXPECT_GT(counter("hom.cluster.early_terminations"), 0u);
  EXPECT_GT(counter("hom.cluster.candidates{step=\"1\"}"), 0u);
  EXPECT_GT(counter("hom.cluster.merges{step=\"1\"}"), 0u);
  EXPECT_EQ(counter("hom.cluster.chunks"), report.num_chunks);
  EXPECT_EQ(counter("hom.cluster.concepts"), report.num_concepts);
  EXPECT_EQ(counter("hom.build.records"), 6000u);
}

TEST(BuildReportObservabilityTest, StepOneMergesAdoptTheirScoredClassifier) {
  Dataset history = TwoConceptHistory(6000, 124);
  HighOrderBuildConfig config;
  // Reuse on mildly unbalanced merges, so that both scoring and step-2
  // merging reuse as well as train.
  config.clustering.reuse_ratio = 4.0;
  HighOrderModelBuilder builder(DecisionTree::Factory(), config);
  Rng rng(125);
  HighOrderBuildReport report;
  auto clf = builder.Build(history, &rng, &report);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();

  auto counter = [&report](const char* name) -> uint64_t {
    auto it = report.counters.find(name);
    return it == report.counters.end() ? 0 : it->second;
  };
  uint64_t step1_merges = counter("hom.cluster.merges{step=\"1\"}");
  uint64_t step2_merges = counter("hom.cluster.merges{step=\"2\"}");
  ASSERT_GT(step1_merges, 0u);
  ASSERT_GT(step2_merges, 0u);
  EXPECT_GT(counter("hom.cluster.classifiers_reused{phase=\"score\"}"), 0u);
  // Scoring trains or reuses one classifier per step-1 candidate...
  EXPECT_EQ(counter("hom.cluster.classifiers_trained{phase=\"score\"}") +
                counter("hom.cluster.classifiers_reused{phase=\"score\"}"),
            counter("hom.cluster.candidates{step=\"1\"}"));
  // ...and a step-1 merge adopts its candidate's, so only step-2 merges
  // train or reuse.
  EXPECT_EQ(counter("hom.cluster.classifiers_trained{phase=\"merge\"}") +
                counter("hom.cluster.classifiers_reused{phase=\"merge\"}"),
            step2_merges);
}

TEST(OnlineObservabilityTest, ObservationsAndEvaluationsAreCounted) {
  SchemaPtr schema = TinySchema();
  auto clf = HighOrderClassifier::Make(schema, TwoConstantConcepts(0.05, 0.05),
                                       TwoConceptStats());
  ASSERT_TRUE(clf.ok());
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  Record labeled({0.0}, 1);
  for (int t = 0; t < 10; ++t) (*clf)->ObserveLabeled(labeled);
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at("hom.online.observations"), 10u);
  // Each observation evaluates psi for both concepts of the ensemble.
  EXPECT_EQ(delta.counters.at("hom.online.psi_evaluations"), 20u);
}

#endif  // HOM_DISABLE_METRICS

TEST(OnlineObservabilityTest, ConceptSwitchIsAlwaysPrecededByDriftEvents) {
  SchemaPtr schema = TinySchema();
  auto clf = HighOrderClassifier::Make(schema, TwoConstantConcepts(0.05, 0.05),
                                       TwoConceptStats());
  ASSERT_TRUE(clf.ok());
  obs::EventJournal journal;
  {
    obs::ScopedJournal scoped(&journal);
    // Drive the label stream through three regimes so the weight argmax
    // flips twice: class 1, then class 0, then class 1 again. Predicting
    // after each observation mirrors the prequential loop and forces the
    // lazy weight refresh where the drift machine lives.
    Record one({0.0}, 1);
    Record zero({0.0}, 0);
    Record x({0.0}, kUnlabeled);
    for (int t = 0; t < 30; ++t) {
      (*clf)->ObserveLabeled(one);
      (*clf)->Predict(x);
    }
    for (int t = 0; t < 30; ++t) {
      (*clf)->ObserveLabeled(zero);
      (*clf)->Predict(x);
    }
    for (int t = 0; t < 30; ++t) {
      (*clf)->ObserveLabeled(one);
      (*clf)->Predict(x);
    }
  }
  size_t switches = 0;
  bool suspected_since_switch = false;
  bool confirmed_since_switch = false;
  for (const obs::Event& e : journal.Snapshot()) {
    if (e.source != "highorder") continue;
    switch (e.type) {
      case obs::EventType::kDriftSuspected:
        suspected_since_switch = true;
        break;
      case obs::EventType::kDriftConfirmed:
        confirmed_since_switch = true;
        break;
      case obs::EventType::kConceptSwitch:
        ++switches;
        EXPECT_TRUE(suspected_since_switch)
            << "switch at record " << e.record << " had no DriftSuspected";
        EXPECT_TRUE(confirmed_since_switch)
            << "switch at record " << e.record << " had no DriftConfirmed";
        suspected_since_switch = false;
        confirmed_since_switch = false;
        break;
      default:
        break;
    }
  }
  EXPECT_GE(switches, 2u);
}

TEST(OnlineObservabilityTest, ActiveConceptFollowsTheDominantWeight) {
  SchemaPtr schema = TinySchema();
  auto clf = HighOrderClassifier::Make(schema, TwoConstantConcepts(0.05, 0.05),
                                       TwoConceptStats());
  ASSERT_TRUE(clf.ok());
  EXPECT_EQ((*clf)->ActiveConcept(), -1);  // nothing observed yet
  Record one({0.0}, 1);
  Record x({0.0}, kUnlabeled);
  for (int t = 0; t < 10; ++t) (*clf)->ObserveLabeled(one);
  (*clf)->Predict(x);  // the weight refresh that tracks the argmax is lazy
  EXPECT_EQ((*clf)->ActiveConcept(), 1);
}

TEST(OnlineObservabilityTest, LatencySamplePeriodIsConfigurable) {
  SchemaPtr schema = TinySchema();
  HighOrderOptions options;
  options.latency_sample_period = 1;  // sample every Predict call
  auto clf = HighOrderClassifier::Make(schema, TwoConstantConcepts(0.05, 0.05),
                                       TwoConceptStats(), options);
  ASSERT_TRUE(clf.ok());
#ifndef HOM_DISABLE_METRICS
  // DeltaSince copies histograms as they are, so the samples earlier tests
  // in this process recorded are subtracted here.
  const std::string kLatency = "hom.online.predict_latency_us";
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  auto earlier = before.histograms.find(kLatency);
  const uint64_t before_count =
      earlier == before.histograms.end() ? 0 : earlier->second.count;
#endif
  Record x({0.0}, kUnlabeled);
  for (int t = 0; t < 8; ++t) (*clf)->Predict(x);
#ifndef HOM_DISABLE_METRICS
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.histograms.at(kLatency).count - before_count, 8u);
#endif
  // Period 0 disables sampling entirely; the countdown must not underflow.
  (*clf)->set_latency_sample_period(0);
  for (int t = 0; t < 8; ++t) (*clf)->Predict(x);
#ifndef HOM_DISABLE_METRICS
  obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(after.histograms.at(kLatency).count - before_count, 8u);
#endif
}

}  // namespace
}  // namespace hom
