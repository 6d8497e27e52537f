// Tests for src/classifiers: the C4.5-style decision tree, Naive Bayes, the
// majority baseline, and the evaluation helpers (holdout, k-fold, metrics).

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "classifiers/decision_tree.h"
#include "classifiers/evaluation.h"
#include "classifiers/majority.h"
#include "classifiers/naive_bayes.h"
#include "common/rng.h"
#include "data/dataset_view.h"
#include "streams/stagger.h"

namespace hom {
namespace {

SchemaPtr NumericSchema(size_t dims) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < dims; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    attrs.push_back(Attribute::Numeric(std::move(name)));
  }
  return Schema::Make(std::move(attrs), {"neg", "pos"}).ValueOrDie();
}

/// Labeled by x0 <= 0.5: a one-split numeric problem.
Dataset ThresholdDataset(size_t n, Rng* rng) {
  Dataset d(NumericSchema(2));
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng->NextDouble();
    double x1 = rng->NextDouble();
    d.AppendUnchecked(Record({x0, x1}, x0 <= 0.5 ? 0 : 1));
  }
  return d;
}

/// Stagger records labeled by one fixed concept: a purely categorical
/// problem a C4.5 tree should solve exactly.
Dataset StaggerConceptDataset(int concept_id, size_t n, Rng* rng) {
  Dataset d(StaggerGenerator::MakeSchema());
  for (size_t i = 0; i < n; ++i) {
    Record r({static_cast<double>(rng->NextBounded(3)),
              static_cast<double>(rng->NextBounded(3)),
              static_cast<double>(rng->NextBounded(3))},
             0);
    r.label = StaggerGenerator::TrueLabel(r, concept_id);
    d.AppendUnchecked(r);
  }
  return d;
}

// ----------------------------------------------------------- DecisionTree

TEST(DecisionTreeTest, RefusesEmptyAndUnlabeledData) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  DecisionTree tree(schema);
  EXPECT_FALSE(tree.Train(DatasetView(&d)).ok());
  d.AppendUnchecked(Record({1.0}, kUnlabeled));
  EXPECT_FALSE(tree.Train(DatasetView(&d)).ok());
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  for (int i = 0; i < 10; ++i) {
    d.AppendUnchecked(Record({static_cast<double>(i)}, 1));
  }
  DecisionTree tree(schema);
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  EXPECT_EQ(tree.Predict(Record({100.0}, kUnlabeled)), 1);
}

TEST(DecisionTreeTest, LearnsNumericThreshold) {
  Rng rng(42);
  Dataset d = ThresholdDataset(400, &rng);
  DecisionTree tree(d.schema());
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  // In-sample error must be ~0; out-of-sample small.
  EXPECT_LT(ErrorRate(tree, DatasetView(&d)), 0.01);
  Dataset fresh = ThresholdDataset(400, &rng);
  EXPECT_LT(ErrorRate(tree, DatasetView(&fresh)), 0.05);
}

TEST(DecisionTreeTest, LearnsEachStaggerConceptExactly) {
  Rng rng(7);
  for (int concept_id = 0; concept_id < 3; ++concept_id) {
    Dataset d = StaggerConceptDataset(concept_id, 500, &rng);
    DecisionTree tree(d.schema());
    ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
    // Check against the oracle on the full 27-cell grid.
    for (int c = 0; c < 3; ++c) {
      for (int s = 0; s < 3; ++s) {
        for (int z = 0; z < 3; ++z) {
          Record r({static_cast<double>(c), static_cast<double>(s),
                    static_cast<double>(z)},
                   kUnlabeled);
          EXPECT_EQ(tree.Predict(r),
                    StaggerGenerator::TrueLabel(r, concept_id))
              << "concept " << concept_id << " cell " << c << s << z;
        }
      }
    }
  }
}

TEST(DecisionTreeTest, LearnsXorOfCategoricalAttributes) {
  // XOR needs two levels of splits; a greedy single split has zero gain on
  // either attribute alone, but C4.5 still solves it because the multiway
  // categorical split on either attribute separates the halves.
  auto schema = Schema::Make({Attribute::Categorical("a", {"f", "t"}),
                              Attribute::Categorical("b", {"f", "t"})},
                             {"neg", "pos"})
                    .ValueOrDie();
  Dataset d(schema);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    int a = static_cast<int>(rng.NextBounded(2));
    int b = static_cast<int>(rng.NextBounded(2));
    d.AppendUnchecked(Record({static_cast<double>(a),
                              static_cast<double>(b)},
                             a != b ? 1 : 0));
  }
  DecisionTreeConfig config;
  config.prune = false;  // pruning could collapse the zero-gain root split
  DecisionTree tree(schema, config);
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      Record r({static_cast<double>(a), static_cast<double>(b)}, kUnlabeled);
      EXPECT_EQ(tree.Predict(r), a != b ? 1 : 0);
    }
  }
}

TEST(DecisionTreeTest, MaxDepthCapsTree) {
  Rng rng(1);
  Dataset d = ThresholdDataset(500, &rng);
  DecisionTreeConfig config;
  config.max_depth = 1;
  DecisionTree tree(d.schema(), config);
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  EXPECT_LE(tree.depth(), 1u);
}

TEST(DecisionTreeTest, PruningShrinksNoisyTree) {
  // A categorical signal (Stagger concept C) with 25% label noise: the
  // fully grown tree chases the noise with extra categorical splits
  // (which carry no MDL charge); pruning should collapse most of them.
  Rng rng(5);
  SchemaPtr schema = StaggerGenerator::MakeSchema();
  Dataset d(schema);
  for (int i = 0; i < 2000; ++i) {
    Record r({static_cast<double>(rng.NextBounded(3)),
              static_cast<double>(rng.NextBounded(3)),
              static_cast<double>(rng.NextBounded(3))},
             0);
    r.label = StaggerGenerator::TrueLabel(r, 2);
    if (rng.NextBernoulli(0.25)) r.label = 1 - r.label;
    d.AppendUnchecked(r);
  }
  DecisionTreeConfig no_prune;
  no_prune.prune = false;
  DecisionTree grown(schema, no_prune);
  ASSERT_TRUE(grown.Train(DatasetView(&d)).ok());

  DecisionTree pruned(schema);  // prune = true by default
  ASSERT_TRUE(pruned.Train(DatasetView(&d)).ok());
  EXPECT_LT(pruned.num_nodes(), grown.num_nodes());
}

TEST(DecisionTreeTest, TrainingIsDeterministic) {
  Rng rng(11);
  Dataset d = ThresholdDataset(300, &rng);
  DecisionTree t1(d.schema()), t2(d.schema());
  ASSERT_TRUE(t1.Train(DatasetView(&d)).ok());
  ASSERT_TRUE(t2.Train(DatasetView(&d)).ok());
  EXPECT_EQ(t1.num_nodes(), t2.num_nodes());
  Rng probe(12);
  for (int i = 0; i < 200; ++i) {
    Record r({probe.NextDouble(), probe.NextDouble()}, kUnlabeled);
    EXPECT_EQ(t1.Predict(r), t2.Predict(r));
  }
}

TEST(DecisionTreeTest, ProbaIsDistributionAndMatchesPredict) {
  Rng rng(13);
  Dataset d = ThresholdDataset(300, &rng);
  DecisionTree tree(d.schema());
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  for (int i = 0; i < 100; ++i) {
    Record r({rng.NextDouble(), rng.NextDouble()}, kUnlabeled);
    std::vector<double> p = tree.PredictProba(r);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
    Label argmax = p[0] >= p[1] ? 0 : 1;
    // Laplace correction cannot flip a majority leaf.
    EXPECT_EQ(tree.Predict(r), argmax);
  }
}

TEST(DecisionTreeTest, ToStringDumpsStructure) {
  Rng rng(17);
  Dataset d = StaggerConceptDataset(2, 300, &rng);
  DecisionTree tree(d.schema());
  EXPECT_EQ(tree.ToString(), "(untrained)");
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  std::string dump = tree.ToString();
  EXPECT_NE(dump.find("size"), std::string::npos);  // concept C splits size
}

TEST(DecisionTreeTest, NumLeavesConsistentWithNodes) {
  Rng rng(19);
  Dataset d = ThresholdDataset(500, &rng);
  DecisionTree tree(d.schema());
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  EXPECT_GE(tree.num_nodes(), tree.num_leaves());
  EXPECT_GE(tree.num_leaves(), 1u);
  // Binary-ish tree: internal nodes < leaves * branching bound.
  EXPECT_LT(tree.num_nodes(), 2 * tree.num_leaves() + 1);
}

// ------------------------------------------------------------- NaiveBayes

TEST(NaiveBayesTest, RecoverGaussianClasses) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    bool pos = rng.NextBernoulli(0.5);
    double x = (pos ? 4.0 : 0.0) + rng.NextGaussian();
    d.AppendUnchecked(Record({x}, pos ? 1 : 0));
  }
  NaiveBayes nb(schema);
  ASSERT_TRUE(nb.Train(DatasetView(&d)).ok());
  EXPECT_EQ(nb.Predict(Record({0.0}, kUnlabeled)), 0);
  EXPECT_EQ(nb.Predict(Record({4.0}, kUnlabeled)), 1);
  // Decision boundary near the midpoint.
  std::vector<double> p = nb.PredictProba(Record({2.0}, kUnlabeled));
  EXPECT_NEAR(p[0], 0.5, 0.1);
}

TEST(NaiveBayesTest, CategoricalLikelihoods) {
  Rng rng(29);
  Dataset d = StaggerConceptDataset(2, 2000, &rng);  // concept C: size-based
  NaiveBayes nb(d.schema());
  ASSERT_TRUE(nb.Train(DatasetView(&d)).ok());
  // Concept C depends on a single attribute, so NB is Bayes-optimal here.
  Dataset fresh = StaggerConceptDataset(2, 500, &rng);
  EXPECT_LT(ErrorRate(nb, DatasetView(&fresh)), 0.02);
}

TEST(NaiveBayesTest, ProbaSumsToOne) {
  Rng rng(31);
  Dataset d = ThresholdDataset(200, &rng);
  NaiveBayes nb(d.schema());
  ASSERT_TRUE(nb.Train(DatasetView(&d)).ok());
  for (int i = 0; i < 50; ++i) {
    Record r({rng.NextDouble(), rng.NextDouble()}, kUnlabeled);
    std::vector<double> p = nb.PredictProba(r);
    double total = 0;
    for (double pi : p) {
      EXPECT_GE(pi, 0.0);
      total += pi;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(NaiveBayesTest, HandlesConstantAttribute) {
  SchemaPtr schema = NumericSchema(2);
  Dataset d(schema);
  for (int i = 0; i < 50; ++i) {
    d.AppendUnchecked(
        Record({1.0, static_cast<double>(i % 2)}, static_cast<Label>(i % 2)));
  }
  NaiveBayes nb(schema);
  ASSERT_TRUE(nb.Train(DatasetView(&d)).ok());  // zero variance guarded
  EXPECT_EQ(nb.Predict(Record({1.0, 1.0}, kUnlabeled)), 1);
}

TEST(NaiveBayesTest, MissingClassGetsSmoothedPrior) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  for (int i = 0; i < 20; ++i) {
    d.AppendUnchecked(Record({static_cast<double>(i)}, 0));
  }
  NaiveBayes nb(schema);
  ASSERT_TRUE(nb.Train(DatasetView(&d)).ok());
  std::vector<double> p = nb.PredictProba(Record({5.0}, kUnlabeled));
  EXPECT_GT(p[0], p[1]);
  EXPECT_GT(p[1], 0.0);  // Laplace smoothing keeps it alive
}

// --------------------------------------------------------------- Majority

TEST(MajorityTest, PredictsMostFrequentClass) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  d.AppendUnchecked(Record({0.0}, 1));
  d.AppendUnchecked(Record({1.0}, 1));
  d.AppendUnchecked(Record({2.0}, 0));
  MajorityClassifier m(schema);
  ASSERT_TRUE(m.Train(DatasetView(&d)).ok());
  EXPECT_EQ(m.Predict(Record({9.0}, kUnlabeled)), 1);
  std::vector<double> p = m.PredictProba(Record({9.0}, kUnlabeled));
  EXPECT_NEAR(p[1], 2.0 / 3.0, 1e-9);
}

TEST(MajorityTest, RejectsUnlabeledOnlyData) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  d.AppendUnchecked(Record({0.0}, kUnlabeled));
  MajorityClassifier m(schema);
  EXPECT_FALSE(m.Train(DatasetView(&d)).ok());
}

// ------------------------------------------------------------- Evaluation

TEST(EvaluationTest, ErrorRateCountsMistakes) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  for (int i = 0; i < 10; ++i) {
    d.AppendUnchecked(Record({0.0}, static_cast<Label>(i < 3 ? 0 : 1)));
  }
  MajorityClassifier m(schema);
  ASSERT_TRUE(m.Train(DatasetView(&d)).ok());  // majority = 1
  EXPECT_NEAR(ErrorRate(m, DatasetView(&d)), 0.3, 1e-12);
}

TEST(EvaluationTest, ConfusionMatrixMetrics) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(0, 1);
  cm.Add(1, 1);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_NEAR(cm.Accuracy(), 0.75, 1e-12);
  EXPECT_NEAR(cm.Recall(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.Precision(1), 0.5, 1e-12);
  EXPECT_NEAR(cm.Precision(0), 1.0, 1e-12);
}

TEST(EvaluationTest, ConfusionMatrixHandlesAbsentClass) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  EXPECT_EQ(cm.Recall(2), 0.0);
  EXPECT_EQ(cm.Precision(2), 0.0);
}

TEST(EvaluationTest, TrainHoldoutSplitsAndScores) {
  Rng rng(37);
  Dataset d = ThresholdDataset(200, &rng);
  auto holdout = TrainHoldout(DecisionTree::Factory(), DatasetView(&d), &rng);
  ASSERT_TRUE(holdout.ok());
  EXPECT_EQ(holdout->train.size(), 100u);
  EXPECT_EQ(holdout->test.size(), 100u);
  EXPECT_LT(holdout->error, 0.1);
  // The returned error matches re-evaluating the model on the test half.
  EXPECT_NEAR(holdout->error, ErrorRate(*holdout->model, holdout->test),
              1e-12);
}

TEST(EvaluationTest, TrainHoldoutNeedsTwoRecords) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  d.AppendUnchecked(Record({0.0}, 0));
  Rng rng(1);
  EXPECT_FALSE(
      TrainHoldout(DecisionTree::Factory(), DatasetView(&d), &rng).ok());
}

TEST(EvaluationTest, KFoldErrorOnLearnableProblem) {
  Rng rng(41);
  Dataset d = ThresholdDataset(300, &rng);
  auto err = KFoldError(DecisionTree::Factory(), DatasetView(&d), 5, &rng);
  ASSERT_TRUE(err.ok());
  EXPECT_LT(*err, 0.1);
}

TEST(EvaluationTest, KFoldValidation) {
  Rng rng(43);
  Dataset d = ThresholdDataset(10, &rng);
  EXPECT_FALSE(KFoldError(DecisionTree::Factory(), DatasetView(&d), 1, &rng)
                   .ok());
  EXPECT_FALSE(KFoldError(DecisionTree::Factory(), DatasetView(&d), 11, &rng)
                   .ok());
}

// ----------------------------------------- Parameterized: all classifiers

struct FactoryCase {
  const char* name;
  ClassifierFactory factory;
};

// gtest prints the parameter beside each test name (ctest lists it too).
// Without this it would dump the raw bytes, which hold pointers and so
// change from one run to the next.
void PrintTo(const FactoryCase& c, std::ostream* os) { *os << c.name; }

class AllClassifiersTest : public ::testing::TestWithParam<FactoryCase> {};

TEST_P(AllClassifiersTest, FitsSeparableNumericData) {
  Rng rng(47);
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  for (int i = 0; i < 400; ++i) {
    bool pos = rng.NextBernoulli(0.5);
    d.AppendUnchecked(Record({pos ? 10.0 + rng.NextDouble()
                                  : rng.NextDouble()},
                             pos ? 1 : 0));
  }
  std::unique_ptr<Classifier> model = GetParam().factory(schema);
  ASSERT_TRUE(model->Train(DatasetView(&d)).ok());
  EXPECT_LT(ErrorRate(*model, DatasetView(&d)), 0.02) << GetParam().name;
}

TEST_P(AllClassifiersTest, ProbaIsNormalized) {
  Rng rng(53);
  Dataset d = ThresholdDataset(100, &rng);
  std::unique_ptr<Classifier> model = GetParam().factory(d.schema());
  ASSERT_TRUE(model->Train(DatasetView(&d)).ok());
  for (int i = 0; i < 20; ++i) {
    Record r({rng.NextDouble(), rng.NextDouble()}, kUnlabeled);
    std::vector<double> p = model->PredictProba(r);
    double total = 0;
    for (double pi : p) total += pi;
    EXPECT_NEAR(total, 1.0, 1e-9) << GetParam().name;
  }
}

TEST_P(AllClassifiersTest, RejectsEmptyTrainingData) {
  SchemaPtr schema = NumericSchema(1);
  Dataset d(schema);
  std::unique_ptr<Classifier> model = GetParam().factory(schema);
  EXPECT_FALSE(model->Train(DatasetView(&d)).ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Factories, AllClassifiersTest,
    ::testing::Values(
        FactoryCase{"decision_tree", DecisionTree::Factory()},
        FactoryCase{"naive_bayes", NaiveBayes::Factory()}),
    [](const ::testing::TestParamInfo<FactoryCase>& info) {
      return info.param.name;
    });

// Decision-tree behaviour across min-leaf sizes (property sweep).
class MinLeafSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MinLeafSweep, LeafSizeRespectedOnSplits) {
  Rng rng(59);
  Dataset d = ThresholdDataset(300, &rng);
  DecisionTreeConfig config;
  config.min_leaf_size = GetParam();
  config.prune = false;
  DecisionTree tree(d.schema(), config);
  ASSERT_TRUE(tree.Train(DatasetView(&d)).ok());
  // Larger minimum leaves can only shrink the tree.
  DecisionTreeConfig tiny;
  tiny.min_leaf_size = 2;
  tiny.prune = false;
  DecisionTree reference(d.schema(), tiny);
  ASSERT_TRUE(reference.Train(DatasetView(&d)).ok());
  EXPECT_LE(tree.num_nodes(), reference.num_nodes());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MinLeafSweep,
                         ::testing::Values(2, 5, 10, 25, 50));

}  // namespace
}  // namespace hom
