// Equivalence tests of the compiled SoA tree kernels
// (classifiers/compiled_tree.h): the flattened form must reproduce the
// pointer walk bit for bit — same Predict, same PredictProba doubles, same
// batched answers — across every stream generator, seed, pruning config,
// unseen-category and missing-value record, and through a HOM2 model
// save/load round trip.

#include <cmath>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "classifiers/compiled_tree.h"
#include "classifiers/decision_tree.h"
#include "common/rng.h"
#include "highorder/concept_stats.h"
#include "highorder/highorder_classifier.h"
#include "highorder/serialization.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/sea.h"
#include "streams/stagger.h"

namespace hom {
namespace {

// Walk answers captured before EnsureCompiled(), so the reference is the
// genuine pointer walk of the very same tree.
struct WalkSnapshot {
  std::vector<Label> labels;
  std::vector<std::vector<double>> probas;
};

WalkSnapshot Snapshot(const Classifier& model, const Dataset& test) {
  WalkSnapshot snap;
  for (const Record& r : test.records()) {
    snap.labels.push_back(model.Predict(r));
    snap.probas.push_back(model.PredictProba(r));
  }
  return snap;
}

void ExpectCompiledMatchesSnapshot(const Classifier& model,
                                   const Dataset& test,
                                   const WalkSnapshot& snap) {
  const CompiledTree* ct = model.compiled();
  ASSERT_NE(ct, nullptr);
  std::vector<double> proba;
  for (size_t i = 0; i < test.size(); ++i) {
    const Record& r = test.records()[i];
    // The model's virtual interface now serves from the compiled form.
    EXPECT_EQ(model.Predict(r), snap.labels[i]);
    EXPECT_EQ(ct->Predict(r), snap.labels[i]);
    model.PredictProbaInto(r, &proba);
    ASSERT_EQ(proba.size(), snap.probas[i].size());
    for (size_t l = 0; l < proba.size(); ++l) {
      // Exact double equality: compilation replays the same arithmetic.
      EXPECT_EQ(proba[l], snap.probas[i][l]) << "record " << i << " class "
                                             << l;
    }
  }
  std::vector<Label> batch(test.size());
  ct->PredictBatch(test.records().data(), test.size(), batch.data());
  for (size_t i = 0; i < test.size(); ++i) {
    EXPECT_EQ(batch[i], snap.labels[i]);
  }
}

void CheckDecisionTreeOnStream(StreamGenerator* gen, bool prune) {
  Dataset train = gen->Generate(600);
  Dataset test = gen->Generate(400);
  DecisionTreeConfig config;
  config.prune = prune;
  DecisionTree tree(gen->schema(), config);
  ASSERT_TRUE(tree.Train(DatasetView(&train)).ok());
  WalkSnapshot snap = Snapshot(tree, test);
  tree.EnsureCompiled();
  ExpectCompiledMatchesSnapshot(tree, test, snap);
}

TEST(CompiledTreeTest, MatchesWalkOnStagger) {
  for (uint64_t seed : {1u, 7u}) {
    for (bool prune : {true, false}) {
      StaggerGenerator gen(seed);
      CheckDecisionTreeOnStream(&gen, prune);
    }
  }
}

TEST(CompiledTreeTest, MatchesWalkOnHyperplane) {
  for (uint64_t seed : {3u, 11u}) {
    for (bool prune : {true, false}) {
      HyperplaneGenerator gen(seed);
      CheckDecisionTreeOnStream(&gen, prune);
    }
  }
}

TEST(CompiledTreeTest, MatchesWalkOnSea) {
  for (bool prune : {true, false}) {
    SeaGenerator gen(5);
    CheckDecisionTreeOnStream(&gen, prune);
  }
}

TEST(CompiledTreeTest, MatchesWalkOnIntrusion) {
  for (bool prune : {true, false}) {
    IntrusionGenerator gen(9);
    CheckDecisionTreeOnStream(&gen, prune);
  }
}

TEST(CompiledTreeTest, RefusesUntrainedTree) {
  StaggerGenerator gen(1);
  DecisionTree tree(gen.schema());
  EXPECT_FALSE(CompiledTree::FromDecisionTree(tree).ok());
  tree.EnsureCompiled();  // no-op, not a crash
  EXPECT_EQ(tree.compiled(), nullptr);
}

TEST(CompiledTreeTest, UnseenCategoryAnswersAtInternalNode) {
  StaggerGenerator gen(2);
  Dataset train = gen.Generate(800);
  DecisionTree tree(gen.schema());
  ASSERT_TRUE(tree.Train(DatasetView(&train)).ok());
  // Out-of-range categorical values route nowhere; the walk answers at the
  // internal node it stopped at, and so must the compiled form.
  Dataset weird(gen.schema());
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    double a = static_cast<double>(rng.NextInt(-2, 6));
    double b = static_cast<double>(rng.NextInt(-2, 6));
    double c = static_cast<double>(rng.NextInt(-2, 6));
    weird.AppendUnchecked(Record({a, b, c}, kUnlabeled));
  }
  WalkSnapshot snap = Snapshot(tree, weird);
  tree.EnsureCompiled();
  ExpectCompiledMatchesSnapshot(tree, weird, snap);
}

TEST(CompiledTreeTest, MissingNumericValuesTakeTheRightBranch) {
  SeaGenerator gen(4);
  Dataset train = gen.Generate(800);
  DecisionTree tree(gen.schema());
  ASSERT_TRUE(tree.Train(DatasetView(&train)).ok());
  ASSERT_GT(tree.depth(), 0u);  // need at least one numeric split to test
  const double nan = std::nan("");
  Dataset weird(gen.schema());
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    std::vector<double> vals(gen.schema()->num_attributes());
    for (double& v : vals) {
      v = rng.NextBernoulli(0.4) ? nan : rng.NextDouble() * 10.0;
    }
    weird.AppendUnchecked(Record(std::move(vals), kUnlabeled));
  }
  WalkSnapshot snap = Snapshot(tree, weird);
  tree.EnsureCompiled();
  ExpectCompiledMatchesSnapshot(tree, weird, snap);
}

// ----------------------------------------------------- high-order paths

// One concept model per Stagger concept, trained on oracle-labeled data.
std::vector<ConceptModel> StaggerConcepts(uint64_t seed) {
  StaggerGenerator gen(seed);
  std::vector<ConceptModel> concepts;
  for (int c = 0; c < 3; ++c) {
    Dataset data(gen.schema());
    Rng rng(seed * 100 + static_cast<uint64_t>(c));
    for (int i = 0; i < 400; ++i) {
      std::vector<double> vals = {static_cast<double>(rng.NextInt(0, 2)),
                                  static_cast<double>(rng.NextInt(0, 2)),
                                  static_cast<double>(rng.NextInt(0, 2))};
      Record r(std::move(vals), kUnlabeled);
      r.label = StaggerGenerator::TrueLabel(r, c);
      data.AppendUnchecked(r);
    }
    ConceptModel cm;
    auto tree = std::make_unique<DecisionTree>(gen.schema());
    EXPECT_TRUE(tree->Train(DatasetView(&data)).ok());
    cm.model = std::move(tree);
    cm.error = 0.05 + 0.01 * c;
    cm.training_records = data.size();
    concepts.push_back(std::move(cm));
  }
  return concepts;
}

std::unique_ptr<HighOrderClassifier> MakeStaggerHighOrder(
    bool use_compiled, bool prune_prediction) {
  HighOrderOptions options;
  options.use_compiled_kernels = use_compiled;
  options.prune_prediction = prune_prediction;
  auto stats =
      ConceptStats::FromLengthsAndFrequencies({80, 120, 100}, {0.4, 0.3, 0.3});
  EXPECT_TRUE(stats.ok());
  auto clf = HighOrderClassifier::Make(StaggerGenerator::MakeSchema(),
                                       StaggerConcepts(21), *stats, options);
  EXPECT_TRUE(clf.ok());
  return std::move(*clf);
}

// Walk-mode, compiled, and compiled+batched instances driven through the
// same predict/observe schedule must emit identical predictions and spend
// identical base-model evaluation budgets.
void CheckHighOrderModesAgree(bool prune_prediction) {
  auto walk = MakeStaggerHighOrder(false, prune_prediction);
  auto compiled = MakeStaggerHighOrder(true, prune_prediction);
  auto batched = MakeStaggerHighOrder(true, prune_prediction);

  for (size_t c = 0; c < compiled->num_concepts(); ++c) {
    EXPECT_NE(compiled->concept_model(c).model->compiled(), nullptr);
    EXPECT_EQ(walk->concept_model(c).model->compiled(), nullptr);
  }

  StaggerGenerator gen(31);
  const size_t kBlocks = 12;
  const size_t kBlock = 64;
  std::vector<Label> batch_out(kBlock);
  std::vector<double> pw, pc;
  for (size_t b = 0; b < kBlocks; ++b) {
    Dataset block = gen.Generate(kBlock);
    std::vector<Record> unlabeled(block.records());
    for (Record& r : unlabeled) r.label = kUnlabeled;
    batched->PredictBatch(unlabeled.data(), unlabeled.size(),
                          batch_out.data());
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      Label lw = walk->Predict(unlabeled[i]);
      Label lc = compiled->Predict(unlabeled[i]);
      EXPECT_EQ(lw, lc);
      EXPECT_EQ(lw, batch_out[i]);
      walk->PredictProbaInto(unlabeled[i], &pw);
      compiled->PredictProbaInto(unlabeled[i], &pc);
      ASSERT_EQ(pw.size(), pc.size());
      for (size_t l = 0; l < pw.size(); ++l) EXPECT_EQ(pw[l], pc[l]);
    }
    for (const Record& r : block.records()) {
      walk->ObserveLabeled(r);
      compiled->ObserveLabeled(r);
      batched->ObserveLabeled(r);
    }
  }
  // The pruning decisions (and thus the evaluation budget) must also match:
  // the batch path may only skip what the scalar path skipped.
  EXPECT_EQ(walk->base_evaluations(), compiled->base_evaluations());
  // walk/compiled answered two extra PredictProbaInto calls per record, so
  // compare batched against its own per-record twin only via predictions.
  EXPECT_EQ(batched->predictions(), kBlocks * kBlock);
}

TEST(CompiledHighOrderTest, ModesAgreePruned) {
  CheckHighOrderModesAgree(true);
}

TEST(CompiledHighOrderTest, ModesAgreeUnpruned) {
  CheckHighOrderModesAgree(false);
}

TEST(CompiledHighOrderTest, SaveLoadRoundTripServesCompiled) {
  auto original = MakeStaggerHighOrder(true, true);
  std::stringstream buffer;
  ASSERT_TRUE(SaveHighOrderModel(&buffer, *original).ok());
  auto loaded = LoadHighOrderModel(&buffer);
  ASSERT_TRUE(loaded.ok());
  // Compile-on-load: the reconstructed concept trees serve compiled too.
  for (size_t c = 0; c < (*loaded)->num_concepts(); ++c) {
    EXPECT_NE((*loaded)->concept_model(c).model->compiled(), nullptr);
  }
  StaggerGenerator gen(41);
  Dataset stream = gen.Generate(300);
  for (const Record& labeled : stream.records()) {
    Record x = labeled;
    x.label = kUnlabeled;
    EXPECT_EQ(original->Predict(x), (*loaded)->Predict(x));
    original->ObserveLabeled(labeled);
    (*loaded)->ObserveLabeled(labeled);
  }
}

}  // namespace
}  // namespace hom
