// Parallel offline-build benchmark: thread sweep over the pooled phases of
// concept clustering (leaf training, the initial adjacent ΔQ batch, step-2
// sample prediction and pairwise distances). Step-1 rescoring and the final
// concept classifiers also run on the pool, but inside spans that hold
// serial work too, so they count in build_seconds only.
//
// For each stream (Stagger, Hyperplane) the same history is built at 1, 2,
// 4, and 8 threads with the same seed. Reported per row:
//
//   * threads                 — effective pool size (config echo),
//   * build_seconds           — full offline build wall time,
//   * parallel_phase_seconds  — wall time of the four pooled spans only
//                               (the serial heap-merge loops are excluded:
//                               they are the algorithm and do not scale),
//   * speedup                 — threads=1 build_seconds / this row's,
//   * num_concepts            — must be identical down the sweep; the
//                               sharded-RNG determinism scheme guarantees
//                               the whole model is bit-identical at every
//                               thread count (tests/parallel_build_test.cc
//                               asserts the serialized bytes).
//
// Numbers are only meaningful relative to the machine's core count: on a
// single hardware thread the sweep measures oversubscription overhead, not
// speedup.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "classifiers/decision_tree.h"
#include "highorder/builder.h"
#include "obs/trace.h"
#include "streams/hyperplane.h"
#include "streams/stagger.h"

namespace {

using namespace hom;
using hom::bench::BenchReporter;
using hom::bench::PrintRule;
using hom::bench::Scale;

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

/// Wall seconds of the spans whose loops run on the pool.
double ParallelPhaseSeconds(const obs::PhaseNode& build) {
  double total = 0.0;
  if (const obs::PhaseNode* n = build.FindChild("leaf_training")) {
    total += n->seconds;
  }
  if (const obs::PhaseNode* s1 = build.FindChild("step1_chunk_merging")) {
    if (const obs::PhaseNode* n = s1->FindChild("initial_candidates")) {
      total += n->seconds;
    }
  }
  if (const obs::PhaseNode* s2 = build.FindChild("step2_concept_merging")) {
    if (const obs::PhaseNode* n = s2->FindChild("similarity_samples")) {
      total += n->seconds;
    }
    if (const obs::PhaseNode* n = s2->FindChild("pairwise_distances")) {
      total += n->seconds;
    }
  }
  return total;
}

struct SweepPoint {
  double build_seconds = 0.0;
  double parallel_phase_seconds = 0.0;
  size_t threads_used = 0;
  size_t num_concepts = 0;
};

int RunSweep(const std::string& stream_name, const Dataset& history,
             const Scale& scale, BenchReporter* reporter) {
  std::printf("\n== %s: %zu-record history, %zu run(s) per point ==\n",
              stream_name.c_str(), history.size(), scale.runs);
  PrintRule(72);
  std::printf("%-10s %14s %22s %10s\n", "threads", "build_s",
              "parallel_phase_s", "speedup");

  double serial_build = 0.0;
  size_t serial_concepts = 0;
  for (size_t threads : kThreadSweep) {
    SweepPoint point;
    for (size_t run = 0; run < scale.runs; ++run) {
      HighOrderBuildConfig config;
      config.clustering.num_threads = threads;
      HighOrderModelBuilder builder(DecisionTree::Factory(), config);
      Rng rng(4242);  // same seed down the sweep: results must match
      HighOrderBuildReport report;
      auto model = builder.Build(history, &rng, &report);
      if (!model.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     model.status().ToString().c_str());
        return 1;
      }
      point.build_seconds += report.build_seconds;
      point.parallel_phase_seconds += ParallelPhaseSeconds(report.phases);
      point.threads_used = report.effective_threads;
      point.num_concepts = report.num_concepts;
      hom::bench::AccumulatedBuildPhases().MergeFrom(report.phases);
    }
    point.build_seconds /= static_cast<double>(scale.runs);
    point.parallel_phase_seconds /= static_cast<double>(scale.runs);

    if (threads == 1) {
      serial_build = point.build_seconds;
      serial_concepts = point.num_concepts;
    } else if (point.num_concepts != serial_concepts) {
      // The determinism scheme makes this impossible; a mismatch means a
      // scheduling dependence crept back in.
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %zu threads found %zu concepts, "
                   "1 thread found %zu\n",
                   threads, point.num_concepts, serial_concepts);
      return 1;
    }
    double speedup =
        point.build_seconds > 0.0 ? serial_build / point.build_seconds : 0.0;
    std::printf("%-10zu %14.3f %22.3f %9.2fx\n", point.threads_used,
                point.build_seconds, point.parallel_phase_seconds, speedup);

    std::string row = stream_name + "/threads=" + std::to_string(threads);
    reporter->AddValue(row, "threads",
                       static_cast<double>(point.threads_used));
    reporter->AddValue(row, "build_seconds", point.build_seconds);
    reporter->AddValue(row, "parallel_phase_seconds",
                       point.parallel_phase_seconds);
    reporter->AddValue(row, "speedup", speedup);
    reporter->AddValue(row, "num_concepts",
                       static_cast<double>(point.num_concepts));
  }
  return 0;
}

}  // namespace

int main() {
  Scale scale = Scale::FromEnvironment();
  BenchReporter reporter("bench_parallel_build");
  reporter.SetScale(scale);

  {
    StaggerConfig config;
    config.lambda = 0.002;
    StaggerGenerator gen(91001, config);
    Dataset history = gen.Generate(scale.stagger_history);
    if (int rc = RunSweep("Stagger", history, scale, &reporter); rc != 0) {
      return rc;
    }
  }
  {
    HyperplaneConfig config;
    HyperplaneGenerator gen(91002, config);
    Dataset history = gen.Generate(scale.hyperplane_history);
    if (int rc = RunSweep("Hyperplane", history, scale, &reporter); rc != 0) {
      return rc;
    }
  }

  if (auto status = reporter.WriteJson(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
