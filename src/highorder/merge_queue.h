#ifndef HOM_HIGHORDER_MERGE_QUEUE_H_
#define HOM_HIGHORDER_MERGE_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hom {

class Classifier;

/// One candidate merger (u, v) with its distance key, plus whatever
/// precomputed merge statistics the clustering step wants to carry (step 1
/// stores the union's classifier and holdout error, so the merge adopts
/// them instead of training again).
struct CandidateMerge {
  double distance = 0.0;
  int32_t u = -1;
  int32_t v = -1;
  double merged_err = 0.0;  ///< Err_w of the candidate union (step 1 only).
  /// M_w of the candidate union: trained on it, or the large side's model
  /// when Section II-D reuse applies (step 1 only).
  std::shared_ptr<Classifier> model;
};

/// \brief The min-heap of candidate mergers from Section II-C.1 ("a
/// min-heap is maintained to manage all candidate mergers with their
/// distances as keys"), with lazy invalidation.
///
/// When a cluster is merged away it is Retire()d; stale heap entries that
/// mention it are discarded on Pop instead of being searched for and
/// erased, which keeps every operation O(log n).
class MergeQueue {
 public:
  /// Pre-allocates heap storage for `num_candidates` entries; the batch
  /// loaders (initial adjacent candidates, the step-2 complete graph) know
  /// their exact candidate count up front.
  void Reserve(size_t num_candidates) { heap_.reserve(num_candidates); }

  /// Declares a cluster id as live. Ids must be registered before they
  /// appear in Push/Retire.
  void RegisterCluster(int32_t id);

  /// Marks a cluster as merged-away; all its pending candidates become
  /// stale.
  void Retire(int32_t id);

  bool IsLive(int32_t id) const;

  /// Adds a candidate merger between two live clusters.
  void Push(CandidateMerge candidate);

  /// Pops the smallest-distance candidate whose two clusters are both
  /// still live. Returns false when no valid candidate remains.
  bool Pop(CandidateMerge* out);

  /// Number of entries currently stored (including stale ones).
  size_t raw_size() const { return heap_.size(); }

 private:
  struct ByDistance {
    bool operator()(const CandidateMerge& a, const CandidateMerge& b) const {
      if (a.distance != b.distance) return a.distance > b.distance;
      // Deterministic tie-break so runs are reproducible.
      if (a.u != b.u) return a.u > b.u;
      return a.v > b.v;
    }
  };

  /// Min-heap via std::push_heap/pop_heap on a plain vector (rather than
  /// std::priority_queue) so Reserve can pre-size the backing store.
  std::vector<CandidateMerge> heap_;
  std::vector<bool> live_;
};

}  // namespace hom

#endif  // HOM_HIGHORDER_MERGE_QUEUE_H_
