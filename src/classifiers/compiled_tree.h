#ifndef HOM_CLASSIFIERS_COMPILED_TREE_H_
#define HOM_CLASSIFIERS_COMPILED_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "data/record.h"
#include "data/schema.h"

namespace hom {

class DecisionTree;

/// \brief A trained tree flattened into contiguous structure-of-arrays form
/// for the online prediction hot path (DESIGN.md §13).
///
/// The pointer-walking `DecisionTree::Predict` chases `Node` structs whose
/// children live behind a per-node heap `std::vector<int32_t>`, and every
/// `PredictProba` call allocates a fresh distribution vector. The compiled
/// form re-lays the tree out breadth-first so that every node's children
/// are contiguous (`first_child + branch` replaces the per-node child
/// vector — the two-child numeric case in particular loses its heap hop),
/// splits the node record into parallel flat arrays (split attribute,
/// threshold, first-child index, fanout, majority, distribution offset),
/// evaluates numeric splits branchlessly, and packs every answer node's
/// Laplace-corrected class distribution into one shared vector so
/// `PredictProbaInto` is an allocation-free copy.
///
/// Compilation is exact: `Predict`/`PredictProba`/`PredictBatch` reproduce
/// the source tree's answers bit for bit, including unseen-category
/// fallbacks (the walk answers at the internal node) and NaN ("missing")
/// numeric values, which fail `v <= threshold` and take the right branch in
/// both forms. tests/compiled_tree_test.cc asserts this across every stream
/// generator, seed, and pruning config.
class CompiledTree {
 public:
  /// Flattens a trained C4.5 tree. Fails on an untrained tree.
  static Result<std::unique_ptr<CompiledTree>> FromDecisionTree(
      const DecisionTree& tree);

  /// The majority label of the node the record routes to — bit-identical
  /// to the source tree's Predict().
  Label Predict(const Record& record) const {
    return majority_[Route(record)];
  }

  /// Fills `proba` (resized to num_classes) with the routed node's packed
  /// distribution. No allocation once `proba` has capacity.
  void PredictProbaInto(const Record& record, std::vector<double>* proba) const;

  /// Allocating convenience wrapper over PredictProbaInto.
  std::vector<double> PredictProba(const Record& record) const;

  /// Routes `n` records in one pass over the node arrays and writes their
  /// predicted labels to `out` (which must hold `n` entries).
  void PredictBatch(const Record* records, size_t n, Label* out) const;

  /// Batched weighted accumulation — the ensemble-mixture kernel:
  /// for each i in [0, count),
  ///   proba[indices[i] * stride + l] += weight * M(l | records[indices[i]])
  /// One pass over the node arrays serves every listed record, amortizing
  /// the tree's memory traffic across the batch; the index list is how the
  /// caller keeps pruning-resolved records out of later passes.
  void AccumulateProbaBatch(const Record* records, const uint32_t* indices,
                            size_t count, double weight, size_t stride,
                            double* proba) const;

  size_t num_nodes() const { return split_attr_.size(); }
  size_t num_classes() const { return num_classes_; }
  /// Bytes of the flattened arrays (diagnostics).
  size_t MemoryBytes() const;

 private:
  CompiledTree() = default;

  /// Index of the node that answers for `record`: a leaf, or the internal
  /// categorical node at which routing stopped on an unseen value.
  uint32_t Route(const Record& record) const {
    uint32_t idx = 0;
    for (;;) {
      const int32_t attr = split_attr_[idx];
      if (attr < 0) return idx;  // leaf
      const double v = record.values[static_cast<size_t>(attr)];
      if (numeric_split_[idx] != 0) {
        // Branchless two-way split. `!(v <= t)` (not `v > t`) so NaN
        // routes right, exactly like the pointer walk's ternary.
        idx = static_cast<uint32_t>(first_child_[idx]) +
              static_cast<uint32_t>(!(v <= threshold_[idx]));
      } else {
        const int32_t c = static_cast<int32_t>(v);
        if (c < 0 || c >= fanout_[idx]) return idx;  // unseen category
        idx = static_cast<uint32_t>(first_child_[idx] + c);
      }
    }
  }

  // Parallel per-node arrays (SoA), breadth-first order from the root so
  // each node's children are contiguous.
  std::vector<int32_t> split_attr_;    ///< -1 for leaves.
  std::vector<double> threshold_;      ///< numeric split: <= goes left.
  std::vector<int32_t> first_child_;   ///< children occupy [first, first+fanout).
  std::vector<int32_t> fanout_;        ///< 0 for leaves.
  std::vector<uint8_t> numeric_split_; ///< 1 = numeric threshold split.
  std::vector<Label> majority_;        ///< the node's Predict() answer.
  std::vector<int32_t> dist_offset_;   ///< offset into dist_; -1 = one-hot
                                       ///< of majority_ (never packed).
  /// All answer-node distributions, packed num_classes apiece.
  std::vector<double> dist_;
  size_t num_classes_ = 0;
};

}  // namespace hom

#endif  // HOM_CLASSIFIERS_COMPILED_TREE_H_
