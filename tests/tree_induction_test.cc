// Differential test of DecisionTree induction. ReferenceTree below is the
// straightforward C4.5 induction the presorted one must reproduce: at every
// node it copies the (value, label) pairs of each numeric attribute, sorts
// them and scores every distinct cut. DecisionTree sorts each attribute once
// per Train() and scores only class-boundary cuts plus the ends of the
// min_leaf_size range; the serialized bytes of the two must be equal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "classifiers/decision_tree.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/dataset_view.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/sea.h"
#include "streams/stagger.h"

namespace hom {
namespace {

double Entropy(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c > 0.0) {
      double p = c / total;
      h -= p * std::log2(p);
    }
  }
  return h;
}

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
  if (e < 1e-6) return n * (1.0 - std::exp(std::log(cf) / n));
  if (e < 0.9999) {
    double val0 = n * (1.0 - std::exp(std::log(cf) / n));
    return val0 + e * (AddErrs(n, 1.0, cf) - val0);
  }
  if (e + 0.5 >= n) return 0.67 * (n - e);
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

/// Per-node sort, every distinct cut scored; writes DecisionTree's format.
class ReferenceTree {
 public:
  ReferenceTree(SchemaPtr schema, DecisionTreeConfig config)
      : schema_(std::move(schema)), config_(config) {}

  void Train(const DatasetView& data) {
    std::vector<const Record*> rows;
    for (size_t i = 0; i < data.size(); ++i) rows.push_back(&data.record(i));
    BuildNode(&rows, 0, rows.size(), 0);
    if (!config_.prune) return;
    PruneSubtree(0);
    std::vector<Node> compact;
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
    nodes_ = std::move(compact);
  }

  std::string Bytes() const {
    std::ostringstream out;
    BinaryWriter writer(&out);
    EXPECT_TRUE(writer.WriteU32(static_cast<uint32_t>(nodes_.size())).ok());
    for (const Node& node : nodes_) {
      EXPECT_TRUE(writer.WriteI32(node.attribute).ok());
      EXPECT_TRUE(writer.WriteDouble(node.threshold).ok());
      EXPECT_TRUE(writer.WriteI32(node.majority).ok());
      EXPECT_TRUE(writer.WriteDouble(node.total).ok());
      EXPECT_TRUE(writer.WriteDoubleVector(node.class_counts).ok());
      EXPECT_TRUE(
          writer.WriteU32(static_cast<uint32_t>(node.children.size())).ok());
      for (int32_t child : node.children) {
        EXPECT_TRUE(writer.WriteI32(child).ok());
      }
    }
    return out.str();
  }

 private:
  struct Node {
    int attribute = -1;
    double threshold = 0.0;
    std::vector<int32_t> children;
    Label majority = 0;
    std::vector<double> class_counts;
    double total = 0.0;
  };

  struct SplitChoice {
    int attribute = -1;
    double threshold = 0.0;
  };

  int32_t MakeLeaf(const std::vector<double>& counts) {
    Node leaf;
    leaf.class_counts = counts;
    for (double c : counts) leaf.total += c;
    leaf.majority = ArgMax(counts);
    nodes_.push_back(std::move(leaf));
    return static_cast<int32_t>(nodes_.size() - 1);
  }

  int32_t BuildNode(std::vector<const Record*>* rows, size_t begin,
                    size_t end, size_t depth) {
    std::vector<double> counts(schema_->num_classes(), 0.0);
    for (size_t i = begin; i < end; ++i) {
      counts[static_cast<size_t>((*rows)[i]->label)] += 1.0;
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
    SplitChoice split = ChooseSplit(*rows, begin, end, counts);
    if (split.attribute < 0) return MakeLeaf(counts);

    const Attribute& attr = schema_->attribute(split.attribute);
    Node node;
    node.attribute = split.attribute;
    node.threshold = split.threshold;
    node.class_counts = counts;
    node.total = static_cast<double>(n);
    node.majority = ArgMax(counts);
    nodes_.push_back(std::move(node));
    int32_t me = static_cast<int32_t>(nodes_.size() - 1);

    std::vector<int32_t> children;
    if (attr.is_numeric()) {
      auto mid = std::stable_partition(
          rows->begin() + begin, rows->begin() + end, [&](const Record* r) {
            return r->values[split.attribute] <= split.threshold;
          });
      size_t cut = static_cast<size_t>(mid - rows->begin());
      children.push_back(BuildNode(rows, begin, cut, depth + 1));
      children.push_back(BuildNode(rows, cut, end, depth + 1));
    } else {
      size_t k = attr.cardinality();
      std::vector<std::vector<const Record*>> buckets(k);
      for (size_t i = begin; i < end; ++i) {
        buckets[static_cast<size_t>((*rows)[i]->category(split.attribute))]
            .push_back((*rows)[i]);
      }
      size_t pos = begin;
      std::vector<std::pair<size_t, size_t>> ranges(k);
      for (size_t v = 0; v < k; ++v) {
        size_t start = pos;
        for (const Record* r : buckets[v]) (*rows)[pos++] = r;
        ranges[v] = {start, pos};
      }
      for (size_t v = 0; v < k; ++v) {
        if (ranges[v].first == ranges[v].second) {
          Node leaf;
          leaf.class_counts.assign(schema_->num_classes(), 0.0);
          leaf.majority = nodes_[me].majority;
          nodes_.push_back(std::move(leaf));
          children.push_back(static_cast<int32_t>(nodes_.size() - 1));
        } else {
          children.push_back(
              BuildNode(rows, ranges[v].first, ranges[v].second, depth + 1));
        }
      }
    }
    nodes_[me].children = std::move(children);
    return me;
  }

  SplitChoice ChooseSplit(const std::vector<const Record*>& rows,
                          size_t begin, size_t end,
                          const std::vector<double>& counts) const {
    size_t n = end - begin;
    double total = static_cast<double>(n);
    double base_entropy = Entropy(counts, total);
    size_t num_classes = schema_->num_classes();
    struct Candidate {
      int attribute;
      double threshold;
      double gain;
      double split_info;
    };
    std::vector<Candidate> candidates;
    for (size_t a = 0; a < schema_->num_attributes(); ++a) {
      const Attribute& attr = schema_->attribute(a);
      if (attr.is_categorical()) {
        size_t k = attr.cardinality();
        std::vector<double> branch_counts(k * num_classes, 0.0);
        std::vector<double> branch_totals(k, 0.0);
        for (size_t i = begin; i < end; ++i) {
          size_t v = static_cast<size_t>(rows[i]->category(a));
          branch_counts[v * num_classes +
                        static_cast<size_t>(rows[i]->label)] += 1.0;
          branch_totals[v] += 1.0;
        }
        size_t populated = 0;
        size_t big_enough = 0;
        for (size_t v = 0; v < k; ++v) {
          if (branch_totals[v] > 0) ++populated;
          if (branch_totals[v] >= static_cast<double>(config_.min_leaf_size)) {
            ++big_enough;
          }
        }
        if (populated < 2 || big_enough < 2) continue;
        double cond = 0.0;
        double split_info = 0.0;
        for (size_t v = 0; v < k; ++v) {
          if (branch_totals[v] <= 0) continue;
          std::vector<double> bc(branch_counts.begin() + v * num_classes,
                                 branch_counts.begin() + (v + 1) * num_classes);
          cond += (branch_totals[v] / total) * Entropy(bc, branch_totals[v]);
          double p = branch_totals[v] / total;
          split_info -= p * std::log2(p);
        }
        double gain = base_entropy - cond;
        if (gain <= 1e-12) continue;
        candidates.push_back({static_cast<int>(a), 0.0, gain, split_info});
      } else {
        std::vector<std::pair<double, Label>> vals;
        for (size_t i = begin; i < end; ++i) {
          vals.emplace_back(rows[i]->values[a], rows[i]->label);
        }
        std::sort(vals.begin(), vals.end());
        if (vals.front().first == vals.back().first) continue;
        std::vector<double> left(num_classes, 0.0);
        std::vector<double> right = counts;
        double best_gain = -1.0;
        double best_threshold = 0.0;
        double best_split_info = 0.0;
        size_t distinct_cuts = 0;
        double min_leaf = static_cast<double>(config_.min_leaf_size);
        double left_total = 0.0;
        for (size_t i = 0; i + 1 < vals.size(); ++i) {
          left[static_cast<size_t>(vals[i].second)] += 1.0;
          right[static_cast<size_t>(vals[i].second)] -= 1.0;
          left_total += 1.0;
          if (vals[i].first == vals[i + 1].first) continue;
          ++distinct_cuts;
          double right_total = total - left_total;
          if (left_total < min_leaf || right_total < min_leaf) continue;
          double cond = (left_total / total) * Entropy(left, left_total) +
                        (right_total / total) * Entropy(right, right_total);
          double gain = base_entropy - cond;
          if (gain > best_gain) {
            best_gain = gain;
            best_threshold = (vals[i].first + vals[i + 1].first) / 2.0;
            double pl = left_total / total;
            double pr = right_total / total;
            best_split_info = -(pl * std::log2(pl) + pr * std::log2(pr));
          }
        }
        if (best_gain < 0) continue;
        best_gain -=
            std::log2(static_cast<double>(std::max<size_t>(distinct_cuts, 1))) /
            total;
        if (best_gain <= 1e-12) continue;
        candidates.push_back(
            {static_cast<int>(a), best_threshold, best_gain, best_split_info});
      }
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
        if (c.gain + 1e-12 < avg_gain) continue;
        score = c.split_info > 1e-12 ? c.gain / c.split_info : c.gain;
      } else {
        score = c.gain;
      }
      if (score > best_score) {
        best_score = score;
        choice.attribute = c.attribute;
        choice.threshold = c.threshold;
      }
    }
    return choice;
  }

  double PruneSubtree(int32_t node_idx) {
    Node& node = nodes_[static_cast<size_t>(node_idx)];
    double observed_errors =
        node.total - node.class_counts[static_cast<size_t>(node.majority)];
    double as_leaf =
        node.total > 0
            ? observed_errors + AddErrs(node.total, observed_errors,
                                        config_.pruning_confidence)
            : 0.0;
    if (node.attribute < 0) return as_leaf;
    double as_subtree = 0.0;
    for (int32_t child : node.children) as_subtree += PruneSubtree(child);
    if (as_leaf <= as_subtree + 0.1) {
      node.attribute = -1;
      node.children.clear();
      return as_leaf;
    }
    return as_subtree;
  }

  SchemaPtr schema_;
  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
};

std::vector<DecisionTreeConfig> ConfigGrid() {
  std::vector<DecisionTreeConfig> grid;
  for (size_t min_leaf : {1u, 2u, 5u}) {
    for (bool gain_ratio : {true, false}) {
      for (size_t max_depth : {0u, 3u}) {
        for (bool prune : {true, false}) {
          DecisionTreeConfig config;
          config.min_leaf_size = min_leaf;
          config.use_gain_ratio = gain_ratio;
          config.max_depth = max_depth;
          config.prune = prune;
          grid.push_back(config);
        }
      }
    }
  }
  return grid;
}

std::string ConfigName(const DecisionTreeConfig& c) {
  return "min_leaf=" + std::to_string(c.min_leaf_size) +
         " gain_ratio=" + std::to_string(c.use_gain_ratio) +
         " max_depth=" + std::to_string(c.max_depth) +
         " prune=" + std::to_string(c.prune);
}

std::string TreeBytes(const DecisionTree& tree) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  EXPECT_TRUE(tree.SaveTo(&writer).ok());
  return out.str();
}

/// Trains both inductions on `view` under every grid config and compares
/// bytes. Returns how many of the trees split at least once.
size_t ExpectSameBytes(const DatasetView& view) {
  size_t split_trees = 0;
  for (const DecisionTreeConfig& config : ConfigGrid()) {
    SCOPED_TRACE(ConfigName(config));
    DecisionTree tree(view.schema(), config);
    EXPECT_TRUE(tree.Train(view).ok());
    ReferenceTree reference(view.schema(), config);
    reference.Train(view);
    EXPECT_EQ(TreeBytes(tree), reference.Bytes());
    if (tree.num_nodes() > 1) ++split_trees;
  }
  return split_trees;
}

/// The whole dataset, plus a holdout half and a half-of-a-half, the kind
/// of row subsets the clusterer trains on.
void ExpectSameBytesOnSubsets(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  DatasetView full(&data);
  auto [train, test] = full.SplitHoldout(&rng);
  auto [quarter, rest] = test.SplitHoldout(&rng);
  for (const DatasetView* view : {&full, &train, &quarter}) {
    SCOPED_TRACE("rows=" + std::to_string(view->size()));
    EXPECT_GT(ExpectSameBytes(*view), 0u);
  }
}

/// A copy of `data` with every numeric value rounded to `decimals` places,
/// so that ties dominate the split search.
Dataset Rounded(const Dataset& data, int decimals) {
  double scale = std::pow(10.0, decimals);
  Dataset out(data.schema());
  for (size_t i = 0; i < data.size(); ++i) {
    Record r = data.record(i);
    for (size_t a = 0; a < r.values.size(); ++a) {
      if (data.schema()->attribute(a).is_numeric()) {
        r.values[a] = std::round(r.values[a] * scale) / scale;
      }
    }
    EXPECT_TRUE(out.Append(std::move(r)).ok());
  }
  return out;
}

TEST(TreeInductionDiffTest, Stagger) {
  for (uint64_t seed : {1u, 2u}) {
    StaggerGenerator gen(seed);
    ExpectSameBytesOnSubsets(gen.Generate(3000), seed);
  }
}

TEST(TreeInductionDiffTest, Sea) {
  for (uint64_t seed : {1u, 2u}) {
    SeaGenerator gen(seed);
    ExpectSameBytesOnSubsets(gen.Generate(2000), seed);
  }
}

TEST(TreeInductionDiffTest, Hyperplane) {
  for (uint64_t seed : {1u, 2u}) {
    HyperplaneGenerator gen(seed);
    ExpectSameBytesOnSubsets(gen.Generate(2000), seed);
  }
}

TEST(TreeInductionDiffTest, Intrusion) {
  for (uint64_t seed : {1u, 2u}) {
    IntrusionGenerator gen(seed);
    ExpectSameBytesOnSubsets(gen.Generate(1500), seed);
  }
}

TEST(TreeInductionDiffTest, IntrusionWithHeavyTies) {
  IntrusionGenerator gen(3);
  Dataset data = gen.Generate(1500);
  for (int decimals : {0, 1}) {
    SCOPED_TRACE("decimals=" + std::to_string(decimals));
    ExpectSameBytesOnSubsets(Rounded(data, decimals), 3);
  }
}

TEST(TreeInductionDiffTest, IntegerValuedNoisyNumerics) {
  std::vector<Attribute> attrs;
  for (int a = 0; a < 4; ++a) {
    std::string name = "n";
    name += std::to_string(a);
    attrs.push_back(Attribute::Numeric(std::move(name)));
  }
  SchemaPtr schema =
      Schema::Make(std::move(attrs), {"a", "b", "c"}).ValueOrDie();
  Rng rng(17);
  Dataset data(schema);
  for (int i = 0; i < 1200; ++i) {
    std::vector<double> v(4);
    for (double& x : v) x = static_cast<double>(rng.NextUint32() % 6);
    Label y = v[0] + v[1] <= 4.0 ? 0 : (v[2] <= 2.0 ? 1 : 2);
    if (rng.NextUint32() % 5 == 0) y = static_cast<Label>(rng.NextUint32() % 3);
    ASSERT_TRUE(data.Append(Record(std::move(v), y)).ok());
  }
  ExpectSameBytesOnSubsets(data, 17);
}

TEST(TreeInductionDiffTest, CategoricalOnlyWithEmptyBranches) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Categorical("p", {"x", "y", "z", "w"}));
  attrs.push_back(Attribute::Categorical("q", {"0", "1", "2", "3", "4", "5"}));
  attrs.push_back(Attribute::Categorical("r", {"lo", "hi"}));
  SchemaPtr schema = Schema::Make(std::move(attrs), {"a", "b"}).ValueOrDie();
  Rng rng(23);
  Dataset data(schema);
  for (int i = 0; i < 1500; ++i) {
    // Category 3 of `p` never occurs, so every split on it has an empty
    // branch.
    std::vector<double> v = {static_cast<double>(rng.NextUint32() % 3),
                             static_cast<double>(rng.NextUint32() % 6),
                             static_cast<double>(rng.NextUint32() % 2)};
    Label y = (v[0] == 1.0) != (v[1] >= 3.0 && v[2] == 1.0) ? 1 : 0;
    if (rng.NextUint32() % 8 == 0) y = 1 - y;
    ASSERT_TRUE(data.Append(Record(std::move(v), y)).ok());
  }
  ExpectSameBytesOnSubsets(data, 23);
}

TEST(TreeInductionDiffTest, OnlySplitIsFirstFeasibleCutInsideAClassRun) {
  // Values 1..53; the first 3 rows are class a, the other 50 class b. With
  // min_leaf_size 5 the only class boundary (3|4) is infeasible, and the
  // best feasible cut is the first one, 5|6, inside the run of class b.
  std::vector<Attribute> attrs = {Attribute::Numeric("x")};
  SchemaPtr schema = Schema::Make(std::move(attrs), {"a", "b"}).ValueOrDie();
  Dataset data(schema);
  for (int i = 1; i <= 53; ++i) {
    ASSERT_TRUE(data.Append(Record({static_cast<double>(i)}, i <= 3 ? 0 : 1))
                    .ok());
  }
  DecisionTreeConfig config;
  config.min_leaf_size = 5;
  config.prune = false;
  DatasetView view(&data);
  DecisionTree tree(schema, config);
  ASSERT_TRUE(tree.Train(view).ok());
  ReferenceTree reference(schema, config);
  reference.Train(view);
  EXPECT_EQ(TreeBytes(tree), reference.Bytes());
  ASSERT_EQ(tree.num_nodes(), 3u);
  EXPECT_NE(tree.ToString().find("x <= 5.5"), std::string::npos)
      << tree.ToString();
  EXPECT_GT(ExpectSameBytes(view), 0u);
}

}  // namespace
}  // namespace hom
