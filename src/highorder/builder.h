#ifndef HOM_HIGHORDER_BUILDER_H_
#define HOM_HIGHORDER_BUILDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "highorder/concept_clustering.h"
#include "highorder/highorder_classifier.h"
#include "obs/trace.h"

namespace hom {

/// End-to-end configuration of the offline building phase.
struct HighOrderBuildConfig {
  ConceptClusteringConfig clustering;
  HighOrderOptions options;
  /// Train each final concept classifier on ALL of the concept's records
  /// (the paper's "we are the only approach that manages to use all data
  /// scattered in the stream but pertaining to a unique concept"). When
  /// false, models keep a fresh holdout split (ablation).
  bool train_on_full_data = true;
};

/// Diagnostics of one build, feeding Table IV and Figure 4.
struct HighOrderBuildReport {
  size_t num_records = 0;
  size_t num_chunks = 0;
  size_t num_concepts = 0;
  double build_seconds = 0.0;
  double final_q = 0.0;
  std::vector<ConceptOccurrence> occurrences;
  std::vector<double> concept_errors;
  std::vector<size_t> concept_sizes;
  /// Effective thread-pool size the clustering ran with (>= 1; see
  /// ConceptClusteringConfig::num_threads).
  size_t effective_threads = 1;
  /// Tasks executed on pool worker threads during clustering and final
  /// training (0 when single-threaded).
  uint64_t pool_tasks = 0;
  /// Wall-clock phase tree of this build (root "build": block_partition,
  /// step1_chunk_merging, step2_concept_merging, classifier_training,
  /// hmm_fitting, ...). Empty-named root when tracing was unavailable.
  obs::PhaseNode phases;
  /// Registry counter activity attributed to this build (snapshot delta),
  /// e.g. "hom.cluster.classifiers_trained". Empty under
  /// HOM_DISABLE_METRICS.
  std::map<std::string, uint64_t> counters;
};

/// \brief The offline phase of Section II end to end: cluster the
/// historical stream into concepts, learn the change statistics, train one
/// classifier per concept, and assemble the online HighOrderClassifier.
class HighOrderModelBuilder {
 public:
  HighOrderModelBuilder(ClassifierFactory base_factory,
                        HighOrderBuildConfig config = {});

  /// Builds from a labeled, time-ordered historical dataset. Deterministic
  /// given `rng`'s state. Optionally fills `report` with diagnostics.
  Result<std::unique_ptr<HighOrderClassifier>> Build(
      const Dataset& history, Rng* rng,
      HighOrderBuildReport* report = nullptr) const;

 private:
  ClassifierFactory base_factory_;
  HighOrderBuildConfig config_;
};

}  // namespace hom

#endif  // HOM_HIGHORDER_BUILDER_H_
