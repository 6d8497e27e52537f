#include "highorder/builder.h"

#include "classifiers/evaluation.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"

namespace hom {

HighOrderModelBuilder::HighOrderModelBuilder(ClassifierFactory base_factory,
                                             HighOrderBuildConfig config)
    : base_factory_(std::move(base_factory)), config_(config) {
  HOM_CHECK(base_factory_ != nullptr);
}

Result<std::unique_ptr<HighOrderClassifier>> HighOrderModelBuilder::Build(
    const Dataset& history, Rng* rng, HighOrderBuildReport* report) const {
  if (history.size() < 2) {
    return Status::InvalidArgument(
        "historical dataset needs at least 2 records");
  }
  Stopwatch timer;
  obs::PhaseTracer tracer("build");
  obs::ScopedTracer activate(&tracer);
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  ConceptClusterer clusterer(base_factory_, config_.clustering);
  DatasetView full(&history);
  HOM_ASSIGN_OR_RETURN(ConceptClusteringResult clustering,
                       clusterer.Cluster(full, rng));

  auto fit_stats = [&]() -> Result<ConceptStats> {
    obs::ScopedSpan span("hmm_fitting");
    return ConceptStats::FromOccurrences(clustering.occurrences,
                                         clustering.concept_data.size());
  };
  HOM_ASSIGN_OR_RETURN(ConceptStats stats, fit_stats());

  // Final per-concept classifiers: by default trained on every record of
  // the concept (all occurrences pooled), with Err_c taken from the
  // clustering holdout so ψ stays an honest error estimate.
  std::vector<ConceptModel> concepts;
  uint64_t pool_tasks = clustering.pool_tasks;
  {
    obs::ScopedSpan span("classifier_training");
    size_t num_concepts = clustering.concept_data.size();
    if (config_.train_on_full_data) {
      // Each tree trains on its own concept's records and draws no
      // randomness, so the trees train concurrently.
      par::ThreadPool pool(clustering.threads_used);
      HOM_ASSIGN_OR_RETURN(
          concepts,
          par::ParallelMap<ConceptModel>(
              &pool, num_concepts, [&](size_t c) -> Result<ConceptModel> {
                ConceptModel cm;
                cm.training_records = clustering.concept_data[c].size();
                cm.model = base_factory_(history.schema());
                HOM_RETURN_NOT_OK(cm.model->Train(clustering.concept_data[c]));
                cm.error = clustering.concept_errors[c];
                return cm;
              }));
      pool_tasks += pool.tasks_executed();
    } else {
      // The holdout splits draw from `rng` in concept order.
      for (size_t c = 0; c < num_concepts; ++c) {
        ConceptModel cm;
        cm.training_records = clustering.concept_data[c].size();
        HOM_ASSIGN_OR_RETURN(
            HoldoutModel holdout,
            TrainHoldout(base_factory_, clustering.concept_data[c], rng));
        cm.model = std::move(holdout.model);
        cm.error = holdout.error;
        concepts.push_back(std::move(cm));
      }
    }
    HOM_COUNTER_ADD("hom.build.final_classifiers_trained", num_concepts);
  }

  HOM_ASSIGN_OR_RETURN(
      std::unique_ptr<HighOrderClassifier> classifier,
      HighOrderClassifier::Make(history.schema(), std::move(concepts),
                                std::move(stats), config_.options));

  double build_seconds = timer.ElapsedSeconds();
  HOM_COUNTER_INC("hom.build.count");
  HOM_COUNTER_ADD("hom.build.records", history.size());
  HOM_GAUGE_SET("hom.build.last_seconds", build_seconds);

  if (report != nullptr) {
    report->num_records = history.size();
    report->num_chunks = clustering.num_chunks;
    report->num_concepts = clustering.concept_data.size();
    report->build_seconds = build_seconds;
    report->final_q = clustering.final_q;
    report->occurrences = clustering.occurrences;
    report->concept_errors = clustering.concept_errors;
    report->effective_threads = clustering.threads_used;
    report->pool_tasks = pool_tasks;
    report->concept_sizes.clear();
    for (const DatasetView& v : clustering.concept_data) {
      report->concept_sizes.push_back(v.size());
    }
    report->phases = tracer.root();
    // The tracer's root total includes Snapshot() overhead and report
    // assembly; pin it to the measured build time instead.
    report->phases.seconds = build_seconds;
    report->counters = obs::MetricsRegistry::Global()
                           .Snapshot()
                           .DeltaSince(before)
                           .CountersFlattened();
  }
  return classifier;
}

}  // namespace hom
