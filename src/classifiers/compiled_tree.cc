#include "classifiers/compiled_tree.h"

#include <cstring>

#include "classifiers/decision_tree.h"
#include "common/check.h"

namespace hom {

namespace {

/// Packs one answer node's distribution and returns its offset in `dist`.
/// `counts`/`total` describe the node's training distribution; a node with
/// no mass answers a one-hot of its majority, otherwise the same
/// Laplace-corrected expression the pointer walk evaluates — identical
/// operations in identical order, so the packed doubles are bit-identical
/// to what PredictProba would have computed on the fly.
int32_t PackDistribution(const std::vector<double>& counts, double total,
                         Label majority, size_t num_classes,
                         std::vector<double>* dist) {
  int32_t offset = static_cast<int32_t>(dist->size());
  if (total <= 0.0 || counts.size() != num_classes) {
    dist->resize(dist->size() + num_classes, 0.0);
    (*dist)[static_cast<size_t>(offset) + static_cast<size_t>(majority)] = 1.0;
    return offset;
  }
  double denom = total + static_cast<double>(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    dist->push_back((counts[c] + 1.0) / denom);
  }
  return offset;
}

}  // namespace

Result<std::unique_ptr<CompiledTree>> CompiledTree::FromDecisionTree(
    const DecisionTree& tree) {
  const auto& nodes = tree.nodes_;
  const Schema& schema = *tree.schema_;
  if (nodes.empty()) {
    return Status::FailedPrecondition("cannot compile an untrained tree");
  }
  auto ct = std::unique_ptr<CompiledTree>(new CompiledTree());
  ct->num_classes_ = schema.num_classes();
  size_t n = nodes.size();
  ct->split_attr_.reserve(n);
  ct->threshold_.reserve(n);
  ct->first_child_.reserve(n);
  ct->fanout_.reserve(n);
  ct->numeric_split_.reserve(n);
  ct->majority_.reserve(n);
  ct->dist_offset_.reserve(n);

  // Breadth-first relayout: processing nodes in discovery order while
  // appending children to the worklist makes every node's children land
  // contiguously, which is what lets first_child + branch replace the
  // per-node child vector.
  std::vector<int32_t> order;
  order.reserve(n);
  order.push_back(0);
  for (size_t ni = 0; ni < order.size(); ++ni) {
    if (order.size() > n) {
      return Status::InvalidArgument(
          "tree nodes do not form a tree (shared or cyclic children)");
    }
    const auto& node = nodes[static_cast<size_t>(order[ni])];
    ct->split_attr_.push_back(node.attribute);
    ct->threshold_.push_back(node.threshold);
    ct->majority_.push_back(node.majority);
    if (node.attribute < 0) {
      ct->first_child_.push_back(0);
      ct->fanout_.push_back(0);
      ct->numeric_split_.push_back(0);
      ct->dist_offset_.push_back(PackDistribution(
          node.class_counts, node.total, node.majority, ct->num_classes_,
          &ct->dist_));
      continue;
    }
    if (static_cast<size_t>(node.attribute) >= schema.num_attributes()) {
      return Status::InvalidArgument("split attribute out of range");
    }
    const Attribute& attr =
        schema.attribute(static_cast<size_t>(node.attribute));
    ct->first_child_.push_back(static_cast<int32_t>(order.size()));
    ct->fanout_.push_back(static_cast<int32_t>(node.children.size()));
    ct->numeric_split_.push_back(attr.is_numeric() ? 1 : 0);
    // Only categorical internal nodes can answer (unseen-value fallback);
    // a numeric split always routes, so its distribution is never read.
    ct->dist_offset_.push_back(
        attr.is_numeric() ? -1
                          : PackDistribution(node.class_counts, node.total,
                                             node.majority, ct->num_classes_,
                                             &ct->dist_));
    for (int32_t child : node.children) {
      if (child < 0 || static_cast<size_t>(child) >= n) {
        return Status::InvalidArgument("child index out of range");
      }
      order.push_back(child);
    }
  }
  return ct;
}

void CompiledTree::PredictProbaInto(const Record& record,
                                    std::vector<double>* proba) const {
  proba->resize(num_classes_);
  uint32_t idx = Route(record);
  int32_t offset = dist_offset_[idx];
  if (offset < 0) {
    std::fill(proba->begin(), proba->end(), 0.0);
    (*proba)[static_cast<size_t>(majority_[idx])] = 1.0;
    return;
  }
  std::memcpy(proba->data(), dist_.data() + offset,
              num_classes_ * sizeof(double));
}

std::vector<double> CompiledTree::PredictProba(const Record& record) const {
  std::vector<double> proba;
  PredictProbaInto(record, &proba);
  return proba;
}

void CompiledTree::PredictBatch(const Record* records, size_t n,
                                Label* out) const {
  for (size_t i = 0; i < n; ++i) {
    out[i] = majority_[Route(records[i])];
  }
}

void CompiledTree::AccumulateProbaBatch(const Record* records,
                                        const uint32_t* indices, size_t count,
                                        double weight, size_t stride,
                                        double* proba) const {
  const double* dist = dist_.data();
  for (size_t i = 0; i < count; ++i) {
    const uint32_t r = indices[i];
    const uint32_t node = Route(records[r]);
    double* row = proba + static_cast<size_t>(r) * stride;
    const int32_t offset = dist_offset_[node];
    if (offset < 0) {
      row[static_cast<size_t>(majority_[node])] += weight;
      continue;
    }
    const double* d = dist + offset;
    for (size_t l = 0; l < num_classes_; ++l) {
      row[l] += weight * d[l];
    }
  }
}

size_t CompiledTree::MemoryBytes() const {
  return split_attr_.size() * (sizeof(int32_t) * 4 + sizeof(double) +
                               sizeof(uint8_t) + sizeof(Label)) +
         dist_.size() * sizeof(double);
}

}  // namespace hom
