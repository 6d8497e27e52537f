// Extended comparison beyond the paper's Table II: the high-order model
// against the stream classifiers this library implements — RePro (KDD'05),
// WCE (KDD'03), a frozen static model, and the naive sliding-window
// retrainer — plus a high-order variant built on Naive Bayes base models
// (Section II-B: "any method designed for mining stationary data").

#include <cstdio>
#include <memory>

#include "baselines/repro.h"
#include "baselines/simple.h"
#include "baselines/wce.h"
#include "bench/harness.h"
#include "classifiers/decision_tree.h"
#include "classifiers/naive_bayes.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/sea.h"
#include "streams/stagger.h"

namespace {

using namespace hom;
using hom::bench::BenchReporter;
using hom::bench::PrintRule;
using hom::bench::Scale;

struct Row {
  const char* name;
  double error;
  double seconds;
};

void RunStream(const char* name, StreamGenerator* gen, size_t history_size,
               size_t test_size, uint64_t seed, BenchReporter* reporter) {
  Dataset history = gen->Generate(history_size);
  Dataset test = gen->Generate(test_size);
  std::vector<Row> rows;

  auto run_stream_classifier = [&](const char* label,
                                   StreamClassifier* clf) {
    for (const Record& r : history.records()) clf->ObserveLabeled(r);
    PrequentialResult res = RunPrequential(clf, test);
    rows.push_back({label, res.error_rate(), res.seconds});
  };

  {
    Rng rng(seed);
    HighOrderModelBuilder builder(DecisionTree::Factory());
    auto clf = builder.Build(history, &rng);
    if (clf.ok()) {
      PrequentialResult res = RunPrequential(clf->get(), test);
      rows.push_back({"High-order (C4.5)", res.error_rate(), res.seconds});
    }
  }
  {
    Rng rng(seed + 1);
    HighOrderModelBuilder builder(NaiveBayes::Factory());
    auto clf = builder.Build(history, &rng);
    if (clf.ok()) {
      PrequentialResult res = RunPrequential(clf->get(), test);
      rows.push_back({"High-order (NB)", res.error_rate(), res.seconds});
    }
  }
  {
    RePro repro(history.schema(), DecisionTree::Factory());
    run_stream_classifier("RePro", &repro);
  }
  {
    Wce wce(history.schema(), DecisionTree::Factory());
    run_stream_classifier("WCE", &wce);
  }
  {
    StaticBaseline frozen(history.schema(), DecisionTree::Factory(), 1000);
    run_stream_classifier("Static", &frozen);
  }
  {
    SlidingWindowBaseline window(history.schema(), DecisionTree::Factory());
    run_stream_classifier("SlidingWindow", &window);
  }

  std::printf("== Extended comparison (%s, %zu history / %zu test) ==\n",
              name, history.size(), test.size());
  std::printf("%-20s %12s %12s\n", "Algorithm", "Error", "Test (s)");
  PrintRule(46);
  for (const Row& row : rows) {
    std::printf("%-20s %12.5f %12.4f\n", row.name, row.error, row.seconds);
    std::string key = std::string(name) + "/" + row.name;
    reporter->AddValue(key, "error", row.error);
    reporter->AddValue(key, "test_seconds", row.seconds);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Scale scale = Scale::FromEnvironment();
  BenchReporter reporter("bench_extended");
  reporter.SetScale(scale);
  {
    StaggerGenerator gen(81001);
    RunStream("Stagger", &gen, scale.stagger_history, scale.stagger_test,
              91, &reporter);
  }
  {
    HyperplaneGenerator gen(81002);
    RunStream("Hyperplane", &gen, scale.hyperplane_history,
              scale.hyperplane_test, 92, &reporter);
  }
  {
    IntrusionConfig config;
    config.lambda = scale.intrusion_lambda;
    IntrusionGenerator gen(81003, config);
    RunStream("Intrusion", &gen, scale.intrusion_history,
              scale.intrusion_test, 93, &reporter);
  }
  {
    // SEA (Street & Kim, the paper's reference [2]): 10% class noise
    // stresses the ψ update and the clustering's error estimates.
    SeaConfig config;
    config.lambda = 0.002;
    SeaGenerator gen(81004, config);
    RunStream("SEA (10% noise)", &gen, scale.stagger_history,
              scale.stagger_test, 94, &reporter);
  }
  if (auto status = reporter.WriteJson(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
