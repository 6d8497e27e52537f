#include "classifiers/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "classifiers/compiled_tree.h"
#include "common/check.h"

namespace hom {

namespace {

double Entropy(const double* counts, size_t k, double total) {
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (size_t i = 0; i < k; ++i) {
    double c = counts[i];
    if (c > 0.0) {
      double p = c / total;
      h -= p * std::log2(p);
    }
  }
  return h;
}

double Entropy(const std::vector<double>& counts, double total) {
  return Entropy(counts.data(), counts.size(), total);
}

/// C4.5 release 8 "AddErrs": the expected number of extra errors at a leaf
/// with `n` cases and `e` observed errors, at confidence factor `cf`
/// (upper bound of the binomial error rate, normal approximation with the
/// original interpolation table).
double AddErrs(double n, double e, double cf) {
  static const double kVal[] = {0,    0.001, 0.005, 0.01, 0.05,
                                0.10, 0.20,  0.40,  1.00};
  static const double kDev[] = {4.0,  3.09, 2.58, 2.33, 1.65,
                                1.28, 0.84, 0.25, 0.00};
  int i = 0;
  while (cf > kVal[i]) ++i;
  double coeff = kDev[i - 1] +
                 (kDev[i] - kDev[i - 1]) * (cf - kVal[i - 1]) /
                     (kVal[i] - kVal[i - 1]);
  coeff = coeff * coeff;

  if (e < 1e-6) {
    return n * (1.0 - std::exp(std::log(cf) / n));
  }
  if (e < 0.9999) {
    double val0 = n * (1.0 - std::exp(std::log(cf) / n));
    return val0 + e * (AddErrs(n, 1.0, cf) - val0);
  }
  if (e + 0.5 >= n) {
    return 0.67 * (n - e);
  }
  double pr =
      (e + 0.5 + coeff / 2 +
       std::sqrt(coeff * ((e + 0.5) * (1 - (e + 0.5) / n) + coeff / 4))) /
      (n + coeff);
  return n * pr - e;
}

Label ArgMax(const std::vector<double>& counts) {
  size_t best = 0;
  for (size_t i = 1; i < counts.size(); ++i) {
    if (counts[i] > counts[best]) best = i;
  }
  return static_cast<Label>(best);
}

}  // namespace

/// Rows are numbered 0..n-1 in view order. `rows` holds every node's
/// segment [begin, end), and `ids` their row ids when there are numeric
/// attributes. Each numeric attribute keeps one list of {value, label,
/// row}, sorted by value once in Train(). A split stable-partitions the row
/// segment and every list segment by branch, so each child's list segments
/// stay sorted and cover the same [begin, end) in every list: no node sorts
/// again.
struct DecisionTree::Induction {
  struct Entry {
    double value;
    Label label;
    uint32_t row;
  };

  size_t n = 0;
  std::vector<const Record*> rows;
  std::vector<uint32_t> ids;
  std::vector<size_t> numeric;  ///< indices of the numeric attributes
  std::vector<Entry> lists;     ///< numeric.size() lists of n entries
  std::vector<size_t> categorical;  ///< indices of the categorical ones
  /// Where each categorical attribute's (category x class) counts start in
  /// ChooseSplit's count cells, and how many cells there are.
  std::vector<size_t> cell_offset;
  size_t num_cells = 0;
  /// Child of the current split, by position in the node's segment and,
  /// for the lists, by row id.
  std::vector<uint32_t> segment_branch;
  std::vector<uint32_t> row_branch;
  std::vector<size_t> next;
  std::vector<const Record*> row_scratch;
  std::vector<uint32_t> id_scratch;
  std::vector<Entry> entry_scratch;

  Entry* list(size_t j) { return lists.data() + j * n; }
  const Entry* list(size_t j) const { return lists.data() + j * n; }

  /// Stable partition of `data`'s [begin, end) by branch; child v lands at
  /// [child_begin[v], child_begin[v + 1]).
  template <typename T, typename BranchOf>
  void Scatter(T* data, T* scratch, size_t begin, size_t end,
               const std::vector<size_t>& child_begin, BranchOf branch_of) {
    std::copy(data + begin, data + end, scratch);
    next.assign(child_begin.begin(), child_begin.end() - 1);
    for (size_t i = 0; i < end - begin; ++i) {
      data[next[branch_of(i, scratch[i])]++] = scratch[i];
    }
  }

  /// Partitions the row segment, its ids and every list segment.
  void Partition(size_t begin, size_t end,
                 const std::vector<size_t>& child_begin) {
    auto by_position = [this](size_t i, auto) { return segment_branch[i]; };
    Scatter(rows.data(), row_scratch.data(), begin, end, child_begin,
            by_position);
    if (numeric.empty()) return;
    Scatter(ids.data(), id_scratch.data(), begin, end, child_begin,
            by_position);
    for (size_t j = 0; j < numeric.size(); ++j) {
      Scatter(list(j), entry_scratch.data(), begin, end, child_begin,
              [this](size_t, const Entry& e) { return row_branch[e.row]; });
    }
  }
};

DecisionTree::DecisionTree(SchemaPtr schema, DecisionTreeConfig config)
    : schema_(std::move(schema)), config_(config) {
  HOM_CHECK(schema_ != nullptr);
  HOM_CHECK_GE(config_.min_leaf_size, 1u);
  HOM_CHECK_GT(config_.pruning_confidence, 0.0);
  HOM_CHECK_LE(config_.pruning_confidence, 1.0);
}

Status DecisionTree::Train(const DatasetView& data) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot train a tree on an empty view");
  }
  nodes_.clear();
  compiled_.reset();
  size_t n = data.size();
  HOM_CHECK_LE(n, size_t{UINT32_MAX});
  Induction ind;
  ind.n = n;
  ind.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Record& r = data.record(i);
    if (!r.is_labeled()) {
      return Status::InvalidArgument("training data contains unlabeled record");
    }
    ind.rows.push_back(&r);
  }
  ind.segment_branch.resize(n);
  ind.row_scratch.resize(n);
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const Attribute& attr = schema_->attribute(a);
    if (attr.is_numeric()) {
      ind.numeric.push_back(a);
    } else {
      ind.categorical.push_back(a);
      ind.cell_offset.push_back(ind.num_cells);
      ind.num_cells += attr.cardinality() * schema_->num_classes();
    }
  }
  if (!ind.numeric.empty()) {
    ind.ids.resize(n);
    for (size_t i = 0; i < n; ++i) ind.ids[i] = static_cast<uint32_t>(i);
    ind.row_branch.resize(n);
    ind.id_scratch.resize(n);
    ind.entry_scratch.resize(n);
  }
  ind.lists.resize(ind.numeric.size() * n);
  for (size_t j = 0; j < ind.numeric.size(); ++j) {
    Induction::Entry* l = ind.list(j);
    for (size_t i = 0; i < n; ++i) {
      const Record& r = *ind.rows[i];
      l[i] = {r.values[ind.numeric[j]], r.label, static_cast<uint32_t>(i)};
    }
    // Ties may land in any order: the split search reads class counts only
    // at cuts between distinct values.
    std::sort(l, l + n,
              [](const Induction::Entry& x, const Induction::Entry& y) {
                return x.value < y.value;
              });
  }

  BuildNode(&ind, 0, n, 0);
  if (config_.prune) {
    PruneSubtree(0);
    // Drop orphaned nodes so num_nodes()/depth() reflect the pruned tree.
    std::vector<Node> compact;
    compact.reserve(nodes_.size());
    // Iterative DFS remap from the root.
    std::vector<int32_t> stack = {0};
    std::vector<int32_t> remap(nodes_.size(), -1);
    while (!stack.empty()) {
      int32_t old = stack.back();
      stack.pop_back();
      if (remap[old] >= 0) continue;
      remap[old] = static_cast<int32_t>(compact.size());
      compact.push_back(nodes_[old]);
      for (int32_t child : nodes_[old].children) stack.push_back(child);
    }
    for (Node& node : compact) {
      for (int32_t& child : node.children) child = remap[child];
    }
    // DFS order above does not preserve child-before-parent ordering, but
    // remap is complete, so pointers are consistent.
    nodes_ = std::move(compact);
  }
  return Status::OK();
}

int32_t DecisionTree::MakeLeaf(const std::vector<double>& counts) {
  Node leaf;
  leaf.class_counts = counts;
  leaf.total = 0.0;
  for (double c : counts) leaf.total += c;
  leaf.majority = ArgMax(counts);
  nodes_.push_back(std::move(leaf));
  return static_cast<int32_t>(nodes_.size() - 1);
}

int32_t DecisionTree::BuildNode(Induction* ind, size_t begin, size_t end,
                                size_t depth) {
  HOM_DCHECK(begin < end);
  std::vector<double> counts(schema_->num_classes(), 0.0);
  for (size_t i = begin; i < end; ++i) {
    counts[static_cast<size_t>(ind->rows[i]->label)] += 1.0;
  }
  size_t n = end - begin;
  bool pure = false;
  for (double c : counts) {
    if (c == static_cast<double>(n)) pure = true;
  }
  bool depth_capped = config_.max_depth > 0 && depth >= config_.max_depth;
  if (pure || n < 2 * config_.min_leaf_size || depth_capped) {
    return MakeLeaf(counts);
  }

  SplitChoice split = ChooseSplit(*ind, begin, end, counts);
  if (split.attribute < 0) {
    return MakeLeaf(counts);
  }

  const Attribute& attr = schema_->attribute(split.attribute);
  int32_t me = -1;
  {
    Node node;
    node.attribute = split.attribute;
    node.threshold = split.threshold;
    node.class_counts = counts;
    node.total = static_cast<double>(n);
    node.majority = ArgMax(counts);
    nodes_.push_back(std::move(node));
    me = static_cast<int32_t>(nodes_.size() - 1);
  }

  // Route every row once, then partition the rows and the lists by branch.
  size_t k = attr.is_numeric() ? 2 : attr.cardinality();
  std::vector<size_t> child_begin(k + 1, 0);
  for (size_t i = begin; i < end; ++i) {
    const Record& r = *ind->rows[i];
    uint32_t b;
    if (attr.is_numeric()) {
      b = r.values[split.attribute] <= split.threshold ? 0 : 1;
    } else {
      b = static_cast<uint32_t>(r.category(split.attribute));
      HOM_DCHECK(b < k);
    }
    ind->segment_branch[i - begin] = b;
    if (!ind->numeric.empty()) ind->row_branch[ind->ids[i]] = b;
    ++child_begin[b + 1];
  }
  child_begin[0] = begin;
  for (size_t v = 0; v < k; ++v) child_begin[v + 1] += child_begin[v];
  HOM_DCHECK(!attr.is_numeric() ||
             (child_begin[1] > begin && child_begin[1] < end));
  ind->Partition(begin, end, child_begin);

  std::vector<int32_t> children;
  for (size_t v = 0; v < k; ++v) {
    if (child_begin[v] == child_begin[v + 1]) {
      // Empty categorical branch: a weightless leaf predicting the parent
      // majority (C4.5 behaviour). Contributes no errors to pruning.
      Node leaf;
      leaf.class_counts.assign(schema_->num_classes(), 0.0);
      leaf.total = 0.0;
      leaf.majority = nodes_[me].majority;
      nodes_.push_back(std::move(leaf));
      children.push_back(static_cast<int32_t>(nodes_.size() - 1));
    } else {
      children.push_back(
          BuildNode(ind, child_begin[v], child_begin[v + 1], depth + 1));
    }
  }
  nodes_[me].children = std::move(children);
  return me;
}

DecisionTree::SplitChoice DecisionTree::ChooseSplit(
    const Induction& ind, size_t begin, size_t end,
    const std::vector<double>& counts) const {
  size_t n = end - begin;
  double total = static_cast<double>(n);
  double base_entropy = Entropy(counts, total);
  size_t num_classes = schema_->num_classes();

  struct Candidate {
    int attribute = -1;
    double threshold = 0.0;
    double gain = 0.0;
    double split_info = 0.0;
  };
  std::vector<Candidate> candidates;
  std::vector<double> left(num_classes);
  std::vector<double> right(num_classes);
  std::vector<double> branch_totals;

  // Class counts per category of every categorical attribute, gathered in
  // one pass over the rows.
  std::vector<double> cells(ind.num_cells, 0.0);
  if (!ind.categorical.empty()) {
    for (size_t i = begin; i < end; ++i) {
      const Record& r = *ind.rows[i];
      size_t label = static_cast<size_t>(r.label);
      for (size_t c = 0; c < ind.categorical.size(); ++c) {
        size_t v = static_cast<size_t>(r.category(ind.categorical[c]));
        cells[ind.cell_offset[c] + v * num_classes + label] += 1.0;
      }
    }
  }

  size_t list_index = 0;
  size_t cell_index = 0;
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const Attribute& attr = schema_->attribute(a);
    if (attr.is_categorical()) {
      size_t k = attr.cardinality();
      const double* branch_counts =
          cells.data() + ind.cell_offset[cell_index++];
      branch_totals.assign(k, 0.0);
      for (size_t v = 0; v < k; ++v) {
        for (size_t c = 0; c < num_classes; ++c) {
          branch_totals[v] += branch_counts[v * num_classes + c];
        }
      }
      size_t populated = 0;
      size_t big_enough = 0;
      for (size_t v = 0; v < k; ++v) {
        if (branch_totals[v] > 0) ++populated;
        if (branch_totals[v] >= static_cast<double>(config_.min_leaf_size)) {
          ++big_enough;
        }
      }
      // C4.5 requires a genuine partition: >= 2 populated branches, at
      // least 2 of them with the minimum number of objects.
      if (populated < 2 || big_enough < 2) continue;
      double cond = 0.0;
      double split_info = 0.0;
      for (size_t v = 0; v < k; ++v) {
        if (branch_totals[v] <= 0) continue;
        cond += (branch_totals[v] / total) *
                Entropy(branch_counts + v * num_classes, num_classes,
                        branch_totals[v]);
        double p = branch_totals[v] / total;
        split_info -= p * std::log2(p);
      }
      double gain = base_entropy - cond;
      if (gain <= 1e-12) continue;
      candidates.push_back({static_cast<int>(a), 0.0, gain, split_info});
      continue;
    }

    // Numeric attribute: sweep the node's segment of the presorted list.
    const Induction::Entry* vals = ind.list(list_index++) + begin;
    if (vals[0].value == vals[n - 1].value) continue;  // constant

    // Rows sharing one value form a group; cuts fall between groups. A
    // group's class is -1 when its labels differ.
    auto group_end = [&](size_t p, int* cls) {
      size_t q = p + 1;
      *cls = vals[p].label;
      while (q < n && vals[q].value == vals[p].value) {
        if (vals[q].label != *cls) *cls = -1;
        ++q;
      }
      return q;
    };
    std::fill(left.begin(), left.end(), 0.0);
    right = counts;
    double best_gain = -1.0;
    double best_threshold = 0.0;
    double best_split_info = 0.0;
    size_t distinct_cuts = 0;
    double min_leaf = static_cast<double>(config_.min_leaf_size);
    double left_total = 0.0;
    bool seen_feasible = false;
    int cls = -1;
    size_t group_begin = 0;
    size_t cut = group_end(0, &cls);
    while (cut < n) {
      for (size_t i = group_begin; i < cut; ++i) {
        left[static_cast<size_t>(vals[i].label)] += 1.0;
        right[static_cast<size_t>(vals[i].label)] -= 1.0;
        left_total += 1.0;
      }
      ++distinct_cuts;
      int next_cls = -1;
      size_t next_cut = group_end(cut, &next_cls);
      double right_total = total - left_total;
      if (left_total >= min_leaf && right_total >= min_leaf) {
        // Only boundary cuts can hold the first maximum (Fayyad & Irani):
        // between two groups pure in one class, n x conditional entropy is
        // strictly concave in the cut, so it peaks in gain at a boundary
        // or at an end of the feasible range.
        bool first_feasible = !seen_feasible;
        seen_feasible = true;
        bool last_feasible =
            next_cut == n ||
            right_total - static_cast<double>(next_cut - cut) < min_leaf;
        if (first_feasible || last_feasible || cls < 0 || cls != next_cls) {
          double cond = (left_total / total) * Entropy(left, left_total) +
                        (right_total / total) * Entropy(right, right_total);
          double gain = base_entropy - cond;
          if (gain > best_gain) {
            best_gain = gain;
            best_threshold = (vals[cut - 1].value + vals[cut].value) / 2.0;
            double pl = left_total / total;
            double pr = right_total / total;
            best_split_info = -(pl * std::log2(pl) + pr * std::log2(pr));
          }
        }
      }
      group_begin = cut;
      cut = next_cut;
      cls = next_cls;
    }
    if (best_gain < 0) continue;
    // C4.5 release 8 MDL correction for continuous thresholds: charge
    // log2(#candidate cuts)/n against the gain.
    best_gain -=
        std::log2(static_cast<double>(std::max<size_t>(distinct_cuts, 1))) /
        total;
    if (best_gain <= 1e-12) continue;
    candidates.push_back(
        {static_cast<int>(a), best_threshold, best_gain, best_split_info});
  }

  SplitChoice choice;
  if (candidates.empty()) return choice;

  double avg_gain = 0.0;
  for (const Candidate& c : candidates) avg_gain += c.gain;
  avg_gain /= static_cast<double>(candidates.size());

  double best_score = -1.0;
  for (const Candidate& c : candidates) {
    double score;
    if (config_.use_gain_ratio) {
      // C4.5: maximize gain ratio among splits with at-least-average gain
      // (guards against near-zero split info).
      if (c.gain + 1e-12 < avg_gain) continue;
      score = c.split_info > 1e-12 ? c.gain / c.split_info : c.gain;
    } else {
      score = c.gain;
    }
    if (score > best_score) {
      best_score = score;
      choice.attribute = c.attribute;
      choice.threshold = c.threshold;
      choice.score = score;
    }
  }
  return choice;
}

double DecisionTree::PruneSubtree(int32_t node_idx) {
  Node& node = nodes_[static_cast<size_t>(node_idx)];
  double observed_errors =
      node.total - node.class_counts[static_cast<size_t>(node.majority)];
  double as_leaf =
      node.total > 0
          ? observed_errors +
                AddErrs(node.total, observed_errors, config_.pruning_confidence)
          : 0.0;
  if (node.attribute < 0) return as_leaf;

  double as_subtree = 0.0;
  for (int32_t child : node.children) {
    as_subtree += PruneSubtree(child);
  }
  if (as_leaf <= as_subtree + 0.1) {
    node.attribute = -1;
    node.children.clear();
    return as_leaf;
  }
  return as_subtree;
}

const DecisionTree::Node& DecisionTree::Walk(const Record& record) const {
  HOM_CHECK(!nodes_.empty()) << "Predict before Train";
  const Node* node = &nodes_[0];
  while (node->attribute >= 0) {
    const Attribute& attr = schema_->attribute(node->attribute);
    size_t child;
    if (attr.is_numeric()) {
      child = record.values[static_cast<size_t>(node->attribute)] <=
                      node->threshold
                  ? 0
                  : 1;
    } else {
      int v = record.category(static_cast<size_t>(node->attribute));
      if (v < 0 || static_cast<size_t>(v) >= node->children.size()) {
        break;  // unseen category: answer with this node's majority
      }
      child = static_cast<size_t>(v);
    }
    node = &nodes_[static_cast<size_t>(node->children[child])];
  }
  return *node;
}

Label DecisionTree::Predict(const Record& record) const {
  return Walk(record).majority;
}

std::vector<double> DecisionTree::PredictProba(const Record& record) const {
  std::vector<double> proba;
  PredictProbaInto(record, &proba);
  return proba;
}

void DecisionTree::PredictProbaInto(const Record& record,
                                    std::vector<double>* out) const {
  if (compiled_ != nullptr) {
    compiled_->PredictProbaInto(record, out);
    return;
  }
  const Node& leaf = Walk(record);
  std::vector<double>& proba = *out;
  proba.assign(schema_->num_classes(), 0.0);
  if (leaf.total <= 0.0) {
    proba[static_cast<size_t>(leaf.majority)] = 1.0;
    return;
  }
  // Laplace-corrected leaf distribution.
  double denom = leaf.total + static_cast<double>(proba.size());
  for (size_t c = 0; c < proba.size(); ++c) {
    proba[c] = (leaf.class_counts[c] + 1.0) / denom;
  }
}

void DecisionTree::EnsureCompiled() {
  if (compiled_ != nullptr || nodes_.empty()) return;
  auto compiled = CompiledTree::FromDecisionTree(*this);
  // A trained tree always compiles; the error paths guard corrupt inputs
  // that Train()/LoadFrom() cannot produce.
  if (compiled.ok()) compiled_ = std::move(*compiled);
}

size_t DecisionTree::num_leaves() const {
  size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.attribute < 0) ++leaves;
  }
  return leaves;
}

size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative DFS carrying depth.
  size_t max_depth = 0;
  std::vector<std::pair<int32_t, size_t>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    for (int32_t child : nodes_[static_cast<size_t>(idx)].children) {
      stack.push_back({child, d + 1});
    }
  }
  return max_depth;
}

void DecisionTree::Dump(int32_t node_idx, int indent, std::string* out) const {
  const Node& node = nodes_[static_cast<size_t>(node_idx)];
  std::ostringstream line;
  line << std::string(static_cast<size_t>(indent) * 2, ' ');
  if (node.attribute < 0) {
    line << "-> " << schema_->class_name(node.majority) << " (n=" << node.total
         << ")\n";
    *out += line.str();
    return;
  }
  const Attribute& attr = schema_->attribute(node.attribute);
  if (attr.is_numeric()) {
    line << attr.name << " <= " << node.threshold << "?\n";
    *out += line.str();
    Dump(node.children[0], indent + 1, out);
    Dump(node.children[1], indent + 1, out);
  } else {
    line << attr.name << "?\n";
    *out += line.str();
    for (size_t v = 0; v < node.children.size(); ++v) {
      std::ostringstream branch;
      branch << std::string(static_cast<size_t>(indent + 1) * 2, ' ') << "= "
             << attr.categories[v] << ":\n";
      *out += branch.str();
      Dump(node.children[v], indent + 2, out);
    }
  }
}

std::string DecisionTree::ToString() const {
  if (nodes_.empty()) return "(untrained)";
  std::string out;
  Dump(0, 0, &out);
  return out;
}

Status DecisionTree::SaveTo(BinaryWriter* writer) const {
  HOM_RETURN_NOT_OK(writer->WriteU32(static_cast<uint32_t>(nodes_.size())));
  for (const Node& node : nodes_) {
    HOM_RETURN_NOT_OK(writer->WriteI32(node.attribute));
    HOM_RETURN_NOT_OK(writer->WriteDouble(node.threshold));
    HOM_RETURN_NOT_OK(writer->WriteI32(node.majority));
    HOM_RETURN_NOT_OK(writer->WriteDouble(node.total));
    HOM_RETURN_NOT_OK(writer->WriteDoubleVector(node.class_counts));
    HOM_RETURN_NOT_OK(
        writer->WriteU32(static_cast<uint32_t>(node.children.size())));
    for (int32_t child : node.children) {
      HOM_RETURN_NOT_OK(writer->WriteI32(child));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<DecisionTree>> DecisionTree::LoadFrom(
    BinaryReader* reader, SchemaPtr schema) {
  // Bounds a corrupt count field: 2M nodes is far past any tree this
  // builder produces, yet keeps the worst-case allocation in the MBs.
  constexpr uint32_t kMaxNodes = 2u << 20;
  auto tree = std::make_unique<DecisionTree>(schema);
  HOM_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  if (count == 0) {
    return Status::InvalidArgument("serialized tree has no nodes");
  }
  if (count > kMaxNodes) {
    return Status::InvalidArgument("serialized tree declares " +
                                   std::to_string(count) +
                                   " nodes, over the cap (corrupt file?)");
  }
  tree->nodes_.resize(count);
  for (Node& node : tree->nodes_) {
    HOM_ASSIGN_OR_RETURN(node.attribute, reader->ReadI32());
    HOM_ASSIGN_OR_RETURN(node.threshold, reader->ReadDouble());
    HOM_ASSIGN_OR_RETURN(node.majority, reader->ReadI32());
    HOM_ASSIGN_OR_RETURN(node.total, reader->ReadDouble());
    HOM_ASSIGN_OR_RETURN(node.class_counts, reader->ReadDoubleVector());
    if (node.class_counts.size() != schema->num_classes()) {
      return Status::InvalidArgument("node class-count arity mismatch");
    }
    if (!std::isfinite(node.total)) {
      return Status::InvalidArgument("node total is not finite");
    }
    for (double c : node.class_counts) {
      if (!std::isfinite(c)) {
        return Status::InvalidArgument("node class count is not finite");
      }
    }
    HOM_ASSIGN_OR_RETURN(uint32_t fanout, reader->ReadU32());
    if (fanout > count) {
      return Status::InvalidArgument("node fanout exceeds node count");
    }
    node.children.resize(fanout);
    for (int32_t& child : node.children) {
      HOM_ASSIGN_OR_RETURN(child, reader->ReadI32());
      if (child < 0 || static_cast<uint32_t>(child) >= count) {
        return Status::InvalidArgument("child index out of range");
      }
    }
    if (node.attribute >= 0) {
      if (static_cast<size_t>(node.attribute) >= schema->num_attributes()) {
        return Status::InvalidArgument("split attribute out of range");
      }
      const Attribute& attr =
          schema->attribute(static_cast<size_t>(node.attribute));
      size_t expected = attr.is_numeric() ? 2 : attr.cardinality();
      if (node.children.size() != expected) {
        return Status::InvalidArgument("split fanout mismatch");
      }
    }
    if (node.majority < 0 ||
        static_cast<size_t>(node.majority) >= schema->num_classes()) {
      return Status::InvalidArgument("node majority out of range");
    }
  }
  return tree;
}

ClassifierFactory DecisionTree::Factory(DecisionTreeConfig config) {
  return [config](const SchemaPtr& schema) -> std::unique_ptr<Classifier> {
    return std::make_unique<DecisionTree>(schema, config);
  };
}

}  // namespace hom
