// Cross-cutting property tests: invariants that must hold across every
// stream type, base learner, and configuration — parameterized gtest
// sweeps rather than single-point checks.

#include <cmath>
#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "baselines/repro.h"
#include "baselines/wce.h"
#include "classifiers/decision_tree.h"
#include "classifiers/naive_bayes.h"
#include "common/rng.h"
#include "eval/prequential.h"
#include "highorder/builder.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/sea.h"
#include "streams/stagger.h"

namespace hom {
namespace {

// ------------------------------------------------ stream-generic pipeline

enum class StreamKind { kStagger, kHyperplane, kIntrusion, kSea };

struct StreamCase {
  const char* name;
  StreamKind kind;
};

// gtest prints the parameter beside each test name (ctest lists it too).
// Without this it would dump the raw bytes, which hold pointers and so
// change from one run to the next.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<StreamGenerator> MakeStream(StreamKind kind, uint64_t seed) {
  switch (kind) {
    case StreamKind::kStagger: {
      StaggerConfig config;
      config.lambda = 0.002;
      return std::make_unique<StaggerGenerator>(seed, config);
    }
    case StreamKind::kHyperplane: {
      HyperplaneConfig config;
      config.lambda = 0.002;
      return std::make_unique<HyperplaneGenerator>(seed, config);
    }
    case StreamKind::kIntrusion: {
      IntrusionConfig config;
      config.lambda = 0.003;
      return std::make_unique<IntrusionGenerator>(seed, config);
    }
    case StreamKind::kSea: {
      SeaConfig config;
      config.lambda = 0.002;
      return std::make_unique<SeaGenerator>(seed, config);
    }
  }
  return nullptr;
}

class EveryStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(EveryStream, GeneratorIsDeterministic) {
  auto a = MakeStream(GetParam().kind, 7);
  auto b = MakeStream(GetParam().kind, 7);
  for (int i = 0; i < 500; ++i) {
    Record ra = a->Next();
    Record rb = b->Next();
    ASSERT_EQ(ra.values, rb.values);
    ASSERT_EQ(ra.label, rb.label);
    ASSERT_EQ(a->current_concept(), b->current_concept());
  }
}

TEST_P(EveryStream, GeneratedRecordsConformToSchema) {
  auto gen = MakeStream(GetParam().kind, 11);
  Dataset d(gen->schema());
  for (int i = 0; i < 300; ++i) {
    // Append (validated) must accept every generated record.
    ASSERT_TRUE(d.Append(gen->Next()).ok());
  }
}

TEST_P(EveryStream, BuilderProducesWorkingClassifier) {
  auto gen = MakeStream(GetParam().kind, 13);
  Dataset history = gen->Generate(8000);
  Dataset test = gen->Generate(4000);
  HighOrderModelBuilder builder(DecisionTree::Factory());
  Rng rng(1);
  auto clf = builder.Build(history, &rng);
  ASSERT_TRUE(clf.ok()) << clf.status().ToString();
  PrequentialResult result = RunPrequential(clf->get(), test);
  // Any sane model stays far below chance on every benchmark stream.
  double chance = 1.0 - 1.0 / static_cast<double>(
                            history.schema()->num_classes());
  EXPECT_LT(result.error_rate(), chance * 0.75) << GetParam().name;
}

TEST_P(EveryStream, ActiveProbabilitiesStayNormalized) {
  auto gen = MakeStream(GetParam().kind, 17);
  Dataset history = gen->Generate(6000);
  Dataset test = gen->Generate(1000);
  HighOrderModelBuilder builder(DecisionTree::Factory());
  Rng rng(2);
  auto clf = builder.Build(history, &rng);
  ASSERT_TRUE(clf.ok());
  for (const Record& r : test.records()) {
    Record x = r;
    x.label = kUnlabeled;
    (void)(*clf)->Predict(x);
    const std::vector<double>& active = (*clf)->active_probabilities();
    double total = 0.0;
    for (double p : active) {
      ASSERT_GE(p, -1e-12);
      total += p;
    }
    ASSERT_NEAR(total, 1.0, 1e-6);
    (*clf)->ObserveLabeled(r);
  }
}

TEST_P(EveryStream, HighOrderProbaIsDistribution) {
  auto gen = MakeStream(GetParam().kind, 19);
  Dataset history = gen->Generate(6000);
  HighOrderModelBuilder builder(DecisionTree::Factory());
  Rng rng(3);
  auto clf = builder.Build(history, &rng);
  ASSERT_TRUE(clf.ok());
  Dataset probe = gen->Generate(200);
  for (const Record& r : probe.records()) {
    Record x = r;
    x.label = kUnlabeled;
    std::vector<double> p = (*clf)->PredictProba(x);
    double total = 0.0;
    for (double pi : p) {
      ASSERT_GE(pi, -1e-12);
      total += pi;
    }
    ASSERT_NEAR(total, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, EveryStream,
    ::testing::Values(StreamCase{"stagger", StreamKind::kStagger},
                      StreamCase{"hyperplane", StreamKind::kHyperplane},
                      StreamCase{"intrusion", StreamKind::kIntrusion},
                      StreamCase{"sea", StreamKind::kSea}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return info.param.name;
    });

// --------------------------------------------- clustering configuration

class BlockSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockSizeSweep, StaggerConceptsRecoveredAtEveryBlockSize) {
  StaggerConfig sc;
  sc.lambda = 0.002;
  StaggerGenerator gen(23, sc);
  Dataset history = gen.Generate(10000);
  ConceptClusteringConfig config;
  config.block_size = GetParam();
  ConceptClusterer clusterer(DecisionTree::Factory(), config);
  Rng rng(4);
  auto result = clusterer.Cluster(DatasetView(&history), &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // All paper-recommended block sizes ("2-20") recover the three concepts,
  // possibly with an extra boundary fragment.
  EXPECT_GE(result->concept_data.size(), 3u) << "block=" << GetParam();
  EXPECT_LE(result->concept_data.size(), 6u) << "block=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeSweep,
                         ::testing::Values(5, 10, 20, 40));

TEST(ClusteringConfigTest, LiteralPaperRulesStillWorkOnStagger) {
  // z = 0 and raw errors reproduce the paper's exact Algorithm 1; on
  // clean Stagger at moderate scale it still recovers the concepts.
  StaggerConfig sc;
  sc.lambda = 0.002;
  StaggerGenerator gen(29, sc);
  Dataset history = gen.Generate(10000);
  ConceptClusteringConfig config;
  config.laplace_error_smoothing = false;
  config.step1_cut_z = 0.0;
  config.step2_cut_z = 0.0;
  config.early_stop_z = 0.0;
  ConceptClusterer clusterer(DecisionTree::Factory(), config);
  Rng rng(5);
  auto result = clusterer.Cluster(DatasetView(&history), &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->concept_data.size(), 3u);
}

TEST(ClusteringConfigTest, EarlyStopOffMatchesOnForStagger) {
  // Early termination is an optimization; with and without it the final
  // concepts must essentially agree on clean data.
  StaggerConfig sc;
  sc.lambda = 0.002;
  StaggerGenerator gen(31, sc);
  Dataset history = gen.Generate(8000);

  auto run = [&](bool early_stop) {
    ConceptClusteringConfig config;
    config.early_stop = early_stop;
    ConceptClusterer clusterer(DecisionTree::Factory(), config);
    Rng rng(6);
    return clusterer.Cluster(DatasetView(&history), &rng);
  };
  auto with = run(true);
  auto without = run(false);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->concept_data.size(), without->concept_data.size());
}

TEST(ClusteringConfigTest, UnbalancedReuseDoesNotChangeConcepts) {
  // The §II-D classifier-reuse shortcut is an approximation; on clean data
  // it must not change what is discovered.
  StaggerConfig sc;
  sc.lambda = 0.002;
  StaggerGenerator gen(33, sc);
  Dataset history = gen.Generate(8000);

  auto run = [&](bool reuse) {
    ConceptClusteringConfig config;
    config.reuse_on_unbalanced_merge = reuse;
    ConceptClusterer clusterer(DecisionTree::Factory(), config);
    Rng rng(7);
    return clusterer.Cluster(DatasetView(&history), &rng);
  };
  auto with = run(true);
  auto without = run(false);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->concept_data.size(), without->concept_data.size());
}

// ----------------------------------------------------- ψ / error bounds

TEST(PsiPropertyTest, ConceptsWithHighErrorStillNormalize) {
  // ψ uses Err_c directly; even a terrible concept model (error > 0.5)
  // must leave the tracker well-formed.
  auto stats =
      ConceptStats::FromLengthsAndFrequencies({10, 10}, {0.5, 0.5});
  ActiveProbabilityTracker tracker(*stats);
  for (int t = 0; t < 50; ++t) {
    tracker.Observe({0.9, 0.95});  // both "explain" the data
    double total = tracker.posterior()[0] + tracker.posterior()[1];
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

// ------------------------------------------------ baseline sanity sweep

TEST(BaselineSanityTest, AllBaselinesBeatChanceOnStationaryStagger) {
  StaggerConfig sc;
  sc.lambda = 0.0;
  StaggerGenerator gen(37, sc);
  Dataset stream = gen.Generate(6000);

  RePro repro(StaggerGenerator::MakeSchema(), DecisionTree::Factory());
  Wce wce(StaggerGenerator::MakeSchema(), DecisionTree::Factory());
  EXPECT_LT(RunPrequential(&repro, stream).error_rate(), 0.15);
  EXPECT_LT(RunPrequential(&wce, stream).error_rate(), 0.15);
}

// ----------------------------------- prequential / trace instrumentation

TEST(PrequentialPropertyTest, ErrorTraceSumsToErrors) {
  StaggerGenerator gen(41);
  Dataset stream = gen.Generate(3000);
  Wce wce(StaggerGenerator::MakeSchema(), DecisionTree::Factory());
  PrequentialOptions options;
  options.record_trace = true;
  PrequentialResult result = RunPrequential(&wce, stream, options);
  size_t from_trace = 0;
  for (uint8_t e : result.errors) from_trace += e;
  EXPECT_EQ(from_trace, result.num_errors);
  EXPECT_GE(result.seconds, 0.0);
}

}  // namespace
}  // namespace hom
