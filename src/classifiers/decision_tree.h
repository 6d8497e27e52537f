#ifndef HOM_CLASSIFIERS_DECISION_TREE_H_
#define HOM_CLASSIFIERS_DECISION_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "classifiers/classifier.h"

namespace hom {

/// Tuning knobs of the C4.5-style tree. Defaults mirror Quinlan's release 8
/// defaults (the paper's common base classifier).
struct DecisionTreeConfig {
  /// Minimum number of records in each branch of an adopted split.
  size_t min_leaf_size = 2;
  /// Maximum tree depth; 0 means unlimited.
  size_t max_depth = 0;
  /// Select splits by gain ratio (C4.5) instead of raw information gain
  /// (ID3).
  bool use_gain_ratio = true;
  /// Apply pessimistic error-based pruning after growing.
  bool prune = true;
  /// Confidence factor CF of the pruning upper bound (C4.5 default 0.25).
  double pruning_confidence = 0.25;
};

/// \brief C4.5-style decision tree: gain-ratio splits, multiway categorical
/// branches, binary numeric thresholds, pessimistic error pruning.
///
/// Re-implemented from the algorithm description of Quinlan, "C4.5:
/// Programs for Machine Learning" (1993), which the paper uses as the common
/// base classifier for all three stream algorithms.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(SchemaPtr schema, DecisionTreeConfig config = {});

  Status Train(const DatasetView& data) override;
  Label Predict(const Record& record) const override;
  std::vector<double> PredictProba(const Record& record) const override;
  void PredictProbaInto(const Record& record,
                        std::vector<double>* proba) const override;
  size_t num_classes() const override { return schema_->num_classes(); }
  size_t ComplexityHint() const override { return nodes_.size(); }

  /// Compiled SoA form (classifiers/compiled_tree.h); nullptr until
  /// EnsureCompiled() runs after a successful Train()/LoadFrom().
  const CompiledTree* compiled() const override { return compiled_.get(); }
  void EnsureCompiled() override;

  /// Number of nodes after pruning; 0 before Train().
  size_t num_nodes() const { return nodes_.size(); }
  /// Number of leaves after pruning.
  size_t num_leaves() const;
  /// Longest root-to-leaf path length (root-only tree has depth 0).
  size_t depth() const;

  /// Indented textual dump, for debugging and the examples.
  std::string ToString() const;

  std::string TypeTag() const override { return "dtree"; }
  Status SaveTo(BinaryWriter* writer) const override;
  /// Reconstructs a trained tree saved by SaveTo.
  static Result<std::unique_ptr<DecisionTree>> LoadFrom(BinaryReader* reader,
                                                        SchemaPtr schema);

  /// Factory adapter for ClassifierFactory.
  static ClassifierFactory Factory(DecisionTreeConfig config = {});

 private:
  friend class CompiledTree;  ///< flattens nodes_ without widening the API.

  struct Node {
    int attribute = -1;  ///< -1 for leaves; else split attribute index.
    double threshold = 0.0;          ///< numeric split: <= goes to child 0.
    std::vector<int32_t> children;   ///< 2 for numeric, cardinality for cat.
    Label majority = 0;
    std::vector<double> class_counts;  ///< training distribution at node.
    double total = 0.0;                ///< sum of class_counts.
  };

  struct SplitChoice {
    int attribute = -1;
    double threshold = 0.0;
    double score = 0.0;  ///< gain ratio (or gain) of the chosen split.
  };

  /// Train()'s working set: the rows and the presorted numeric attribute
  /// lists (defined in decision_tree.cc).
  struct Induction;

  int32_t BuildNode(Induction* ind, size_t begin, size_t end, size_t depth);
  int32_t MakeLeaf(const std::vector<double>& counts);
  SplitChoice ChooseSplit(const Induction& ind, size_t begin, size_t end,
                          const std::vector<double>& counts) const;
  /// Post-order pessimistic pruning; returns the estimated error count of
  /// the (possibly collapsed) subtree rooted at `node`.
  double PruneSubtree(int32_t node);
  const Node& Walk(const Record& record) const;
  void Dump(int32_t node, int indent, std::string* out) const;

  SchemaPtr schema_;
  DecisionTreeConfig config_;
  std::vector<Node> nodes_;  ///< nodes_[0] is the root once trained.
  std::shared_ptr<const CompiledTree> compiled_;  ///< see EnsureCompiled().
};

}  // namespace hom

#endif  // HOM_CLASSIFIERS_DECISION_TREE_H_
