// Micro-benchmarks (google-benchmark) for the hot paths: base classifier
// training and prediction, the active-probability tracker, the stream
// generators, and the Zipf sampler — plus one end-to-end high-order build.
//
// After the google-benchmark run, main() executes an instrumented
// default-scale Stagger build + prequential evaluation and writes the
// telemetry (per-phase build timings, step-1/step-2 optimization counters,
// similarity-cache hit rate) to bench_output/bench_micro.json. A csv_io
// row times WriteCsv and ReadCsv over a 60k-row Intrusion stream.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "classifiers/decision_tree.h"
#include "classifiers/naive_bayes.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/zipf.h"
#include "data/io.h"
#include "highorder/active_probability.h"
#include "highorder/builder.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/stagger.h"

namespace hom {
namespace {

Dataset StaggerData(size_t n) {
  StaggerGenerator gen(1);
  return gen.Generate(n);
}

Dataset HyperplaneData(size_t n) {
  HyperplaneGenerator gen(2);
  return gen.Generate(n);
}

void BM_DecisionTreeTrainStagger(benchmark::State& state) {
  Dataset data = StaggerData(static_cast<size_t>(state.range(0)));
  DatasetView view(&data);
  for (auto _ : state) {
    DecisionTree tree(data.schema());
    benchmark::DoNotOptimize(tree.Train(view));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionTreeTrainStagger)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DecisionTreeTrainHyperplane(benchmark::State& state) {
  Dataset data = HyperplaneData(static_cast<size_t>(state.range(0)));
  DatasetView view(&data);
  for (auto _ : state) {
    DecisionTree tree(data.schema());
    benchmark::DoNotOptimize(tree.Train(view));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionTreeTrainHyperplane)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DecisionTreePredict(benchmark::State& state) {
  Dataset data = HyperplaneData(10000);
  DecisionTree tree(data.schema());
  (void)tree.Train(DatasetView(&data));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(data.record(i++ % data.size())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecisionTreePredict);

void BM_NaiveBayesTrain(benchmark::State& state) {
  Dataset data = StaggerData(static_cast<size_t>(state.range(0)));
  DatasetView view(&data);
  for (auto _ : state) {
    NaiveBayes nb(data.schema());
    benchmark::DoNotOptimize(nb.Train(view));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NaiveBayesTrain)->Arg(1000)->Arg(10000);

void BM_NaiveBayesPredictProba(benchmark::State& state) {
  Dataset data = StaggerData(5000);
  NaiveBayes nb(data.schema());
  (void)nb.Train(DatasetView(&data));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nb.PredictProba(data.record(i++ % data.size())));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveBayesPredictProba);

void BM_ActiveProbabilityObserve(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto stats = ConceptStats::FromLengthsAndFrequencies(
      std::vector<double>(n, 500.0),
      std::vector<double>(n, 1.0 / static_cast<double>(n)));
  ActiveProbabilityTracker tracker(*stats);
  std::vector<double> psi(n, 0.5);
  psi[0] = 0.95;
  for (auto _ : state) {
    tracker.Observe(psi);
    benchmark::DoNotOptimize(tracker.posterior());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActiveProbabilityObserve)->Arg(3)->Arg(10)->Arg(50);

void BM_StaggerGenerate(benchmark::State& state) {
  StaggerGenerator gen(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StaggerGenerate);

void BM_IntrusionGenerate(benchmark::State& state) {
  IntrusionGenerator gen(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntrusionGenerate);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<size_t>(state.range(0)), 1.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(4)->Arg(64);

void BM_HighOrderBuildStagger(benchmark::State& state) {
  StaggerGenerator gen(6);
  Dataset history = gen.Generate(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Rng rng(7);
    HighOrderModelBuilder builder(DecisionTree::Factory());
    auto clf = builder.Build(history, &rng);
    benchmark::DoNotOptimize(clf);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HighOrderBuildStagger)->Arg(2000)->Unit(benchmark::kMillisecond);

/// The csv_io row: median seconds of `runs` WriteCsv and ReadCsv rounds
/// over 60k Intrusion rows through a temporary file, read under the skip
/// policy as `homctl evaluate` reads. False if a read fails or drops a row.
bool TimeCsvIo(size_t runs, hom::bench::BenchReporter* reporter) {
  constexpr size_t kRows = 60000;
  Dataset data = IntrusionGenerator(4).Generate(kRows);
  std::string path = (std::filesystem::temp_directory_path() /
                      ("hom_bench_micro_" + std::to_string(::getpid()) +
                       ".csv"))
                         .string();
  CsvReadOptions options;
  options.policy = InputPolicy::kSkip;
  std::vector<double> write_seconds, read_seconds;
  bool ok = true;
  for (size_t run = 0; run < runs && ok; ++run) {
    Stopwatch write_watch;
    ok = WriteCsv(data, path).ok();
    write_seconds.push_back(write_watch.ElapsedSeconds());
    Stopwatch read_watch;
    auto read = ReadCsv(data.schema(), path, options);
    read_seconds.push_back(read_watch.ElapsedSeconds());
    ok = ok && read.ok() && read->size() == kRows;
  }
  std::remove(path.c_str());
  if (!ok) return false;
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  double read_s = median(read_seconds);
  reporter->AddValue("csv_io", "write_seconds", median(write_seconds));
  reporter->AddValue("csv_io", "read_seconds", read_s);
  reporter->AddValue("csv_io", "read_rows_per_sec",
                     static_cast<double>(kRows) / read_s);
  return true;
}

}  // namespace
}  // namespace hom

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Telemetry pass: one instrumented default-scale Stagger pipeline run
  // (build + prequential), reported with the process-wide metrics snapshot
  // and the merged build phase tree.
  hom::bench::Scale scale = hom::bench::Scale::FromEnvironment();
  hom::bench::CellResult cell = hom::bench::RunHighOrderOnly(
      [](uint64_t seed) -> std::unique_ptr<hom::StreamGenerator> {
        return std::make_unique<hom::StaggerGenerator>(seed);
      },
      scale.stagger_history, scale.stagger_test, 1, 9500);

  hom::bench::BenchReporter reporter("bench_micro");
  reporter.SetScale(scale);
  reporter.AddCell("Stagger/High-order", cell);
  if (!hom::TimeCsvIo(std::max<size_t>(scale.runs, 1), &reporter)) {
    std::fprintf(stderr, "csv_io: a write or read failed or dropped rows\n");
    return 1;
  }
  if (auto status = reporter.WriteJson(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
