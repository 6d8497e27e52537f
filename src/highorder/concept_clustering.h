#ifndef HOM_HIGHORDER_CONCEPT_CLUSTERING_H_
#define HOM_HIGHORDER_CONCEPT_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "classifiers/classifier.h"
#include "common/result.h"
#include "common/rng.h"
#include "data/dataset_view.h"
#include "highorder/dendrogram.h"
#include "highorder/merge_queue.h"

namespace hom {

/// Tuning of the two-step concept clustering (Sections II-A..II-D). The
/// defaults follow the paper; none of them is data-dependent — the absence
/// of stream-specific user parameters is one of the paper's selling points.
struct ConceptClusteringConfig {
  /// Step-1 block size; the paper recommends 2-20 records per block.
  size_t block_size = 20;
  /// Early termination of hopeless mergers (Section II-D): clusters with at
  /// least `early_stop_min_size` records whose Err exceeds
  /// `early_stop_ratio` x Err* stop participating in mergers.
  bool early_stop = true;
  size_t early_stop_min_size = 2000;
  double early_stop_ratio = 1.2;
  /// Section II-D's second optimization: when a merge is very unbalanced
  /// (the larger side has at least `reuse_ratio` times the records of the
  /// smaller), reuse the large side's classifier for the merged cluster
  /// instead of retraining ("a possible optimization is to simply reuse
  /// the existing classifier from the large cluster").
  bool reuse_on_unbalanced_merge = true;
  double reuse_ratio = 20.0;
  /// Statistical guard on the early-stop ratio test: the cluster is only
  /// frozen when Err - Err* also exceeds this many standard errors of the
  /// holdout estimate. Without it, near-zero errors (accurate base models)
  /// trip the 1.2x ratio on pure sampling noise and correct merges are
  /// frozen out. 0 reproduces the paper's literal Section II-D rule.
  double early_stop_z = 2.0;
  /// Estimate holdout errors with Laplace smoothing, (errors + 1) /
  /// (n + 2), instead of the raw ratio. Small clusters frequently draw a
  /// lucky zero-error holdout sample; the raw estimate then makes Err*
  /// undercut Err by pure sampling noise and the final cut shatters good
  /// merges. Smoothing prices that uncertainty in and recovers the paper's
  /// concept counts at reduced data scale. Set to false for the paper's
  /// literal Eq. 1 (the ablation bench compares both).
  bool laplace_error_smoothing = true;
  /// Significance guards of the two final cuts (see Dendrogram::FinalCut):
  /// split a dendrogram node only when Err - Err* exceeds this many
  /// standard errors of the holdout estimate. 0 reproduces the paper's
  /// literal rule. Step 1 (occurrence boundaries) stays aggressive so real
  /// concept changes are never papered over; step 2 (grouping occurrences
  /// into concepts) is guarded so holdout sampling noise does not shatter
  /// recurring concepts into fragments at reduced data scale.
  double step1_cut_z = 1.0;
  double step2_cut_z = 2.0;
  /// Thread-pool size for the offline build's parallel loops (leaf
  /// training, the initial batch of adjacent ΔQ candidates and each
  /// merge's two new ones, step-2 sample prediction and pairwise
  /// distances, and the builder's final concept classifiers). 0 = auto:
  /// the HOM_THREADS
  /// environment variable when set, else std::thread::hardware_concurrency.
  /// 1 runs everything inline on the calling thread. The clustering result
  /// — dendrogram, final cut, serialized model — is bit-identical at every
  /// thread count: all randomness is derived per node as
  /// hash(build_seed, node_id), never from scheduling order.
  size_t num_threads = 0;
};

/// One maximal run of records assigned to a single concept — the "concept
/// occurrence" of Section II-A, labeled with the discovered concept id.
struct ConceptOccurrence {
  size_t begin = 0;  ///< first record offset within the historical view
  size_t end = 0;    ///< one past the last record offset
  int concept_id = -1;

  size_t length() const { return end - begin; }
};

/// Output of concept clustering.
struct ConceptClusteringResult {
  /// Data of each discovered concept (union of its occurrences, in stream
  /// order).
  std::vector<DatasetView> concept_data;
  /// Holdout validation error Err_c of each concept's base model, from the
  /// concept's dendrogram node.
  std::vector<double> concept_errors;
  /// The occurrence sequence in stream order; adjacent occurrences always
  /// have different concept ids.
  std::vector<ConceptOccurrence> occurrences;
  /// Number of chunks produced by step 1 (diagnostic).
  size_t num_chunks = 0;
  /// Q(P) of the final partition (Eq. 1, diagnostic).
  double final_q = 0.0;
  /// Effective thread-pool size the build ran with (>= 1).
  size_t threads_used = 1;
  /// Tasks executed on pool worker threads during this clustering (0 when
  /// single-threaded; the calling thread's inline work is not counted).
  uint64_t pool_tasks = 0;
};

/// \brief The two-step agglomerative concept clustering of Section II.
///
/// Step 1 joins adjacent fixed-size blocks into chunks (concept
/// occurrences) using the ΔQ merge criterion (Eq. 2); step 2 joins chunks
/// into concepts on a complete graph using the model-similarity distance
/// (Eqs. 3-4) over a shared shuffled sample list. Both steps run Algorithm
/// 1: greedy min-heap merging followed by the Err*-guided final cut.
class ConceptClusterer {
 public:
  ConceptClusterer(ClassifierFactory base_factory,
                   ConceptClusteringConfig config = {});

  /// Clusters the time-ordered historical view. Deterministic given `rng`'s
  /// state.
  Result<ConceptClusteringResult> Cluster(const DatasetView& history,
                                          Rng* rng) const;

 private:
  /// Builds a leaf ClusterNode: holdout split, base model, Err (Algorithm 1
  /// lines 2-7).
  Result<ClusterNode> MakeLeaf(const DatasetView& data, Rng* rng) const;

  /// Merges two step-2 cluster nodes: unions data and holdout halves,
  /// retrains (or reuses, Section II-D), and applies the Err* recursion
  /// (Algorithm 1 lines 11-19). Step-1 merges adopt the classifier their
  /// candidate was scored with instead.
  Result<ClusterNode> MergeNodes(const ClusterNode& u,
                                 const ClusterNode& v) const;

  /// Scores the ΔQ candidate (Eq. 2) for adjacent clusters (u, v): trains
  /// (or reuses, Section II-D) the union classifier and returns the heap
  /// entry carrying ΔQ, that classifier and its holdout error. Thread-safe:
  /// reads the nodes and the factory only, so the initial batch and each
  /// merge's two new neighbour candidates are scored concurrently.
  Result<CandidateMerge> ScoreAdjacentMerge(const ClusterNode& u_node,
                                            const ClusterNode& v_node,
                                            int32_t u, int32_t v) const;

  /// True when Section II-D early termination removes `node` from play.
  bool ShouldStopMerging(const ClusterNode& node) const;

  /// Holdout error of `model` on `test`, Laplace-smoothed when configured.
  double EstimateError(const Classifier& model, const DatasetView& test) const;

  ClassifierFactory base_factory_;
  ConceptClusteringConfig config_;
};

}  // namespace hom

#endif  // HOM_HIGHORDER_CONCEPT_CLUSTERING_H_
