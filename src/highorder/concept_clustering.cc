#include "highorder/concept_clustering.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <utility>

#include "classifiers/evaluation.h"
#include "common/check.h"
#include "common/logging.h"
#include "highorder/block_partition.h"
#include "highorder/merge_queue.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace hom {

namespace {

// Safety valve: step 2 is quadratic in the number of chunks. With the
// paper's parameters (block size 20, lambda 0.001) chunk counts are a few
// hundred; hitting this cap means step 1 over-fragmented.
constexpr size_t kMaxChunksForStep2 = 4000;

// Rng::Derive domains: independent uses of the same index space must not
// correlate, so each draws from its own domain of the build seed.
constexpr uint64_t kLeafSplitDomain = 1;      ///< per-block holdout splits
constexpr uint64_t kSampleShuffleDomain = 2;  ///< step-2 shared sample list

/// Collects the input-leaf descendants of `id`, left to right.
void CollectLeaves(const Dendrogram& dendro, int32_t id,
                   std::vector<int32_t>* leaves) {
  const ClusterNode& n = dendro.node(id);
  if (n.left < 0) {
    leaves->push_back(id);
    return;
  }
  CollectLeaves(dendro, n.left, leaves);
  CollectLeaves(dendro, n.right, leaves);
}

/// Number of shared-sample predictions a ModelDistance(u, v) call compares
/// from each cache; callers tally 2x this as similarity-cache hits.
size_t SharedSamples(const ClusterNode& u, const ClusterNode& v) {
  return std::min(u.sample_predictions.size(), v.sample_predictions.size());
}

/// Model-similarity distance of Eq. 3/4 evaluated on the shared sample
/// list: sim is the agreement fraction over the first
/// min(|D_u^test|, |D_v^test|) shared samples. Every compared prediction
/// is served from the nodes' sample caches, so this is a pure read of the
/// two nodes and safe to evaluate concurrently for disjoint pairs.
double ModelDistance(const ClusterNode& u, const ClusterNode& v) {
  size_t k = SharedSamples(u, v);
  double sim = 0.0;
  if (k > 0) {
    size_t agree = 0;
    for (size_t i = 0; i < k; ++i) {
      if (u.sample_predictions[i] == v.sample_predictions[i]) ++agree;
    }
    sim = static_cast<double>(agree) / static_cast<double>(k);
  }
  return static_cast<double>(u.data.size() + v.data.size()) * (1.0 - sim);
}

/// The union w of clusters u and v (Algorithm 1 lines 14-16): D_w and its
/// holdout halves, with no model yet.
ClusterNode UnionOf(const ClusterNode& u, const ClusterNode& v) {
  ClusterNode w;
  w.data = DatasetView::Union(u.data, v.data);
  w.train = DatasetView::Union(u.train, v.train);
  w.test = DatasetView::Union(u.test, v.test);
  return w;
}

/// Err* recursion (Algorithm 1 line 19): the best partition of D_w either
/// keeps D_w whole or combines the best partitions of its halves.
double ErrStar(const ClusterNode& w, const ClusterNode& u,
               const ClusterNode& v) {
  double nu = static_cast<double>(u.data.size());
  double nv = static_cast<double>(v.data.size());
  return std::min(w.err, (nu * u.err_star + nv * v.err_star) / (nu + nv));
}

}  // namespace

ConceptClusterer::ConceptClusterer(ClassifierFactory base_factory,
                                   ConceptClusteringConfig config)
    : base_factory_(std::move(base_factory)), config_(config) {
  HOM_CHECK(base_factory_ != nullptr);
  HOM_CHECK_GE(config_.block_size, 2u);
  HOM_CHECK_GT(config_.early_stop_ratio, 1.0);
}

double ConceptClusterer::EstimateError(const Classifier& model,
                                       const DatasetView& test) const {
  size_t errors = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    const Record& r = test.record(i);
    if (model.Predict(r) != r.label) ++errors;
  }
  if (config_.laplace_error_smoothing) {
    return (static_cast<double>(errors) + 1.0) /
           (static_cast<double>(test.size()) + 2.0);
  }
  return test.empty() ? 0.0
                      : static_cast<double>(errors) /
                            static_cast<double>(test.size());
}

Result<ClusterNode> ConceptClusterer::MakeLeaf(const DatasetView& data,
                                               Rng* rng) const {
  ClusterNode node;
  node.data = data;
  auto [train, test] = data.SplitHoldout(rng);
  node.train = std::move(train);
  node.test = std::move(test);
  node.model = base_factory_(data.schema());
  HOM_RETURN_NOT_OK(node.model->Train(node.train));
  HOM_COUNTER_INC_LABELED("hom.cluster.classifiers_trained",
                          {{"phase", "leaf"}});
  node.err = EstimateError(*node.model, node.test);
  node.err_star = node.err;
  return node;
}

Result<ClusterNode> ConceptClusterer::MergeNodes(const ClusterNode& u,
                                                 const ClusterNode& v) const {
  ClusterNode w = UnionOf(u, v);
  const ClusterNode& large = u.data.size() >= v.data.size() ? u : v;
  const ClusterNode& small = u.data.size() >= v.data.size() ? v : u;
  if (config_.reuse_on_unbalanced_merge &&
      static_cast<double>(large.data.size()) >=
          config_.reuse_ratio * static_cast<double>(small.data.size())) {
    // Section II-D: the tiny side barely changes the model; reuse the
    // large cluster's classifier instead of retraining on the union.
    w.model = large.model;
    HOM_COUNTER_INC_LABELED("hom.cluster.classifiers_reused",
                            {{"phase", "merge"}});
  } else {
    std::unique_ptr<Classifier> fresh = base_factory_(w.data.schema());
    HOM_RETURN_NOT_OK(fresh->Train(w.train));
    HOM_COUNTER_INC_LABELED("hom.cluster.classifiers_trained",
                            {{"phase", "merge"}});
    w.model = std::move(fresh);
  }
  w.err = EstimateError(*w.model, w.test);
  w.err_star = ErrStar(w, u, v);
  return w;
}

Result<CandidateMerge> ConceptClusterer::ScoreAdjacentMerge(
    const ClusterNode& nu, const ClusterNode& nv, int32_t u,
    int32_t v) const {
  HOM_COUNTER_INC_LABELED("hom.cluster.candidates", {{"step", "1"}});
  DatasetView train = DatasetView::Union(nu.train, nv.train);
  DatasetView test = DatasetView::Union(nu.test, nv.test);
  // Training the union classifier here is what makes step-1 candidates
  // expensive; the heap entry keeps the classifier and its error so the
  // eventual merge adopts both instead of training again.
  std::shared_ptr<Classifier> model;
  const ClusterNode* big = nu.data.size() >= nv.data.size() ? &nu : &nv;
  const ClusterNode* tiny = nu.data.size() >= nv.data.size() ? &nv : &nu;
  if (config_.reuse_on_unbalanced_merge &&
      static_cast<double>(big->data.size()) >=
          config_.reuse_ratio * static_cast<double>(tiny->data.size())) {
    HOM_COUNTER_INC_LABELED("hom.cluster.classifiers_reused",
                            {{"phase", "score"}});
    model = big->model;
  } else {
    std::unique_ptr<Classifier> fresh = base_factory_(train.schema());
    HOM_RETURN_NOT_OK(fresh->Train(train));
    HOM_COUNTER_INC_LABELED("hom.cluster.classifiers_trained",
                            {{"phase", "score"}});
    model = std::move(fresh);
  }
  double err_w = EstimateError(*model, test);
  double size_w = static_cast<double>(nu.data.size() + nv.data.size());
  double delta_q = size_w * err_w -
                   static_cast<double>(nu.data.size()) * nu.err -
                   static_cast<double>(nv.data.size()) * nv.err;
  return CandidateMerge{delta_q, u, v, err_w, std::move(model)};
}

bool ConceptClusterer::ShouldStopMerging(const ClusterNode& node) const {
  if (!config_.early_stop) return false;
  if (node.data.size() < config_.early_stop_min_size) return false;
  if (node.err <= node.err_star * config_.early_stop_ratio + 1e-12) {
    return false;
  }
  // The ratio alone misfires when both errors are near zero; also require
  // the gap to be statistically meaningful at this holdout size.
  double p = std::min(std::max(node.err, 1e-6), 1.0 - 1e-6);
  double margin =
      config_.early_stop_z *
      std::sqrt(p * (1.0 - p) /
                static_cast<double>(std::max<size_t>(node.test.size(), 1)));
  return node.err - node.err_star > margin;
}

Result<ConceptClusteringResult> ConceptClusterer::Cluster(
    const DatasetView& history, Rng* rng) const {
  par::ThreadPool pool(par::ResolveThreadCount(config_.num_threads));
  // The two draws below are the only reads of `rng` in this function. All
  // build randomness is derived statelessly from this one seed as
  // Rng::Derive(build_seed, domain, index), so a work item draws the same
  // stream no matter which lane runs it or in what order — the dendrogram,
  // final cut, and serialized model are bit-identical at every thread
  // count.
  const uint64_t build_seed =
      (static_cast<uint64_t>(rng->NextUint32()) << 32) | rng->NextUint32();

  // ---------------------------------------------------------------- Step 1
  std::vector<DatasetView> blocks;
  Dendrogram dendro1;
  // Record-position extent of every cluster within the history view;
  // step-1 merges are adjacency-only, so extents stay contiguous.
  std::vector<std::pair<size_t, size_t>> extent;
  std::vector<int32_t> block_ids;
  {
    obs::ScopedSpan span("block_partition");
    HOM_ASSIGN_OR_RETURN(blocks,
                         PartitionIntoBlocks(history, config_.block_size));
  }
  {
    obs::ScopedSpan span("leaf_training");
    // Leaves are independent: each block's holdout split draws from its own
    // derived stream and its classifier trains on that block alone.
    HOM_ASSIGN_OR_RETURN(
        std::vector<ClusterNode> leaves,
        par::ParallelMap<ClusterNode>(
            &pool, blocks.size(), [&](size_t i) -> Result<ClusterNode> {
              Rng leaf_rng = Rng::Derive(build_seed, kLeafSplitDomain, i);
              return MakeLeaf(blocks[i], &leaf_rng);
            }));
    // An agglomeration over n leaves builds at most 2n-1 nodes; reserving
    // the ceiling once keeps AddLeaf/AddMerge from ever reallocating.
    dendro1.Reserve(2 * blocks.size());
    extent.reserve(2 * blocks.size());
    block_ids.reserve(blocks.size());
    size_t pos = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
      size_t len = blocks[i].size();
      block_ids.push_back(dendro1.AddLeaf(std::move(leaves[i])));
      extent.emplace_back(pos, pos + len);
      pos += len;
    }
  }

  std::vector<int32_t> chunk_ids;
  {
    obs::ScopedSpan span("step1_chunk_merging");
    MergeQueue queue1;
    // n-1 initial candidates plus at most 2 per merge over <= n-1 merges.
    queue1.Reserve(3 * block_ids.size());
    for (int32_t id : block_ids) queue1.RegisterCluster(id);

    // Chain adjacency: left/right neighbour ids per cluster (-1 at the
    // ends), pre-sized to the 2n-1 node ceiling so the merge loop never
    // pays a per-merge resize.
    std::vector<int32_t> left_of(2 * block_ids.size(), -1);
    std::vector<int32_t> right_of(2 * block_ids.size(), -1);
    for (size_t i = 0; i + 1 < block_ids.size(); ++i) {
      right_of[static_cast<size_t>(block_ids[i])] = block_ids[i + 1];
      left_of[static_cast<size_t>(block_ids[i + 1])] = block_ids[i];
    }

    {
      obs::ScopedSpan cand_span("initial_candidates");
      // The initial adjacent ΔQ candidates only read their two leaves, so
      // the whole batch is scored concurrently; pushes happen afterwards in
      // index order (heap contents are order-sensitive only through the
      // deterministic tie-break, but keeping insertion order fixed makes
      // the heap layout itself reproducible too).
      size_t num_pairs = block_ids.empty() ? 0 : block_ids.size() - 1;
      HOM_ASSIGN_OR_RETURN(
          std::vector<CandidateMerge> initial,
          par::ParallelMap<CandidateMerge>(
              &pool, num_pairs, [&](size_t i) -> Result<CandidateMerge> {
                return ScoreAdjacentMerge(dendro1.node(block_ids[i]),
                                          dendro1.node(block_ids[i + 1]),
                                          block_ids[i], block_ids[i + 1]);
              }));
      for (CandidateMerge& c : initial) queue1.Push(std::move(c));
    }

    // The merge loop itself is inherently sequential: each Pop depends on
    // every prior merge through heap contents, adjacency, and early-stop
    // state, and post-merge candidates are at most two per iteration.
    CandidateMerge cand;
    while (queue1.Pop(&cand)) {
      // The candidate carries the union's classifier and holdout error from
      // scoring. DecisionTree draws no randomness, so training again on the
      // same view would rebuild the same tree.
      const ClusterNode& nu = dendro1.node(cand.u);
      const ClusterNode& nv = dendro1.node(cand.v);
      ClusterNode merged = UnionOf(nu, nv);
      merged.model = std::move(cand.model);
      merged.err = cand.merged_err;
      merged.err_star = ErrStar(merged, nu, nv);
      int32_t wid = dendro1.AddMerge(cand.u, cand.v, std::move(merged));
      HOM_COUNTER_INC_LABELED("hom.cluster.merges", {{"step", "1"}});
      queue1.Retire(cand.u);
      queue1.Retire(cand.v);
      queue1.RegisterCluster(wid);

      HOM_CHECK_LT(static_cast<size_t>(wid), left_of.size());
      extent.emplace_back(extent[static_cast<size_t>(cand.u)].first,
                          extent[static_cast<size_t>(cand.v)].second);
      int32_t lhs = left_of[static_cast<size_t>(cand.u)];
      int32_t rhs = right_of[static_cast<size_t>(cand.v)];
      left_of[static_cast<size_t>(wid)] = lhs;
      right_of[static_cast<size_t>(wid)] = rhs;
      if (lhs >= 0) right_of[static_cast<size_t>(lhs)] = wid;
      if (rhs >= 0) left_of[static_cast<size_t>(rhs)] = wid;

      if (ShouldStopMerging(dendro1.node(wid))) {
        // Section II-D: no further mergers involving this cluster; its
        // final cut will be decided purely from its Err* history.
        HOM_COUNTER_INC("hom.cluster.early_terminations");
        continue;
      }
      // Like the initial batch, the new neighbour candidates only read
      // their two nodes: score them concurrently, push them in order.
      std::vector<std::pair<int32_t, int32_t>> pairs;
      if (lhs >= 0 && queue1.IsLive(lhs)) pairs.emplace_back(lhs, wid);
      if (rhs >= 0 && queue1.IsLive(rhs)) pairs.emplace_back(wid, rhs);
      HOM_ASSIGN_OR_RETURN(
          std::vector<CandidateMerge> rescored,
          par::ParallelMap<CandidateMerge>(
              &pool, pairs.size(), [&](size_t i) -> Result<CandidateMerge> {
                auto [a, b] = pairs[i];
                return ScoreAdjacentMerge(dendro1.node(a), dendro1.node(b), a,
                                          b);
              }));
      for (CandidateMerge& c : rescored) queue1.Push(std::move(c));
    }

    {
      obs::ScopedSpan cut_span("final_cut");
      // Roots of step 1 = clusters never merged away.
      std::vector<int32_t> roots1;
      for (size_t id = 0; id < dendro1.size(); ++id) {
        if (queue1.IsLive(static_cast<int32_t>(id))) {
          roots1.push_back(static_cast<int32_t>(id));
        }
      }
      chunk_ids = dendro1.FinalCut(roots1, config_.step1_cut_z);
      // Stream order.
      std::sort(chunk_ids.begin(), chunk_ids.end(),
                [&](int32_t a, int32_t b) {
                  return extent[static_cast<size_t>(a)].first <
                         extent[static_cast<size_t>(b)].first;
                });
    }
  }
  if (chunk_ids.size() > kMaxChunksForStep2) {
    return Status::FailedPrecondition(
        "step 1 produced " + std::to_string(chunk_ids.size()) +
        " chunks (> " + std::to_string(kMaxChunksForStep2) +
        "); increase block_size or provide more stable history");
  }
  HOM_LOG(kInfo) << "concept clustering: " << blocks.size() << " blocks -> "
                 << chunk_ids.size() << " chunks";

  // ---------------------------------------------------------------- Step 2
  // Chunks become the leaves of a fresh dendrogram; their models and
  // holdout splits are moved over, and Err* restarts at Err.
  // The per-node sample-prediction lists act as a similarity cache: every
  // ModelDistance evaluation reads 2·k cached predictions (hits) that
  // each replaced a base-model evaluation; the cache is filled once per
  // node (misses).
  size_t sim_cache_hits = 0;
  size_t sim_cache_misses = 0;
  Dendrogram dendro2;
  std::vector<int32_t> live;
  {
    obs::ScopedSpan span("step2_concept_merging");
    std::vector<int32_t> leaf_ids;
    dendro2.Reserve(2 * chunk_ids.size());
    leaf_ids.reserve(chunk_ids.size());
    for (int32_t cid : chunk_ids) {
      ClusterNode& src = dendro1.node(cid);
      ClusterNode leaf;
      leaf.data = src.data;
      leaf.train = src.train;
      leaf.test = src.test;
      leaf.model = src.model;
      leaf.err = src.err;
      leaf.err_star = src.err;
      leaf_ids.push_back(dendro2.AddLeaf(std::move(leaf)));
    }

    // Shared sample list L (Section II-C.1): all holdout halves, shuffled
    // once, so every similarity evaluation sees the same distribution.
    std::vector<uint32_t> sample_rows;
    for (int32_t id : leaf_ids) {
      const DatasetView& test = dendro2.node(id).test;
      sample_rows.insert(sample_rows.end(), test.indices().begin(),
                         test.indices().end());
    }
    Rng shuffle_rng = Rng::Derive(build_seed, kSampleShuffleDomain, 0);
    shuffle_rng.Shuffle(&sample_rows);
    const Dataset* base = history.dataset();

    // Returns the number of predictions cached (the cache misses).
    auto fill_sample_predictions = [&](ClusterNode* node) -> size_t {
      size_t k = std::min(node->test.size(), sample_rows.size());
      node->sample_predictions.resize(k);
      for (size_t i = 0; i < k; ++i) {
        node->sample_predictions[i] =
            node->model->Predict(base->record(sample_rows[i]));
      }
      return k;
    };
    {
      obs::ScopedSpan samples_span("similarity_samples");
      // Each leaf's cache is filled over L independently — only the node's
      // own prediction vector is written.
      std::atomic<size_t> misses{0};
      HOM_RETURN_NOT_OK(par::ParallelFor(
          &pool, leaf_ids.size(), /*grain=*/1, [&](size_t i) -> Status {
            misses.fetch_add(
                fill_sample_predictions(&dendro2.node(leaf_ids[i])),
                std::memory_order_relaxed);
            return Status::OK();
          }));
      sim_cache_misses += misses.load(std::memory_order_relaxed);
    }

    MergeQueue queue2;
    for (int32_t id : leaf_ids) queue2.RegisterCluster(id);
    live = leaf_ids;

    size_t step2_candidates = 0;
    {
      obs::ScopedSpan pair_span("pairwise_distances");
      // The complete graph over non-frozen leaves (Section II-C.1). Each
      // distance is a pure read of two prediction caches, so the whole
      // O(k^2) batch is scored in parallel into a flat array, then pushed
      // in pair order.
      std::vector<std::pair<int32_t, int32_t>> pairs;
      for (size_t i = 0; i < leaf_ids.size(); ++i) {
        if (ShouldStopMerging(dendro2.node(leaf_ids[i]))) continue;
        for (size_t j = i + 1; j < leaf_ids.size(); ++j) {
          if (ShouldStopMerging(dendro2.node(leaf_ids[j]))) continue;
          pairs.emplace_back(leaf_ids[i], leaf_ids[j]);
        }
      }
      std::vector<double> dists(pairs.size());
      // Individual distances are cheap; chunk the cursor so lanes grab
      // batches instead of contending per pair.
      size_t grain =
          std::max<size_t>(1, pairs.size() / (pool.num_threads() * 16));
      HOM_RETURN_NOT_OK(par::ParallelFor(
          &pool, pairs.size(), grain, [&](size_t i) -> Status {
            dists[i] = ModelDistance(dendro2.node(pairs[i].first),
                                     dendro2.node(pairs[i].second));
            return Status::OK();
          }));
      queue2.Reserve(pairs.size());
      for (size_t i = 0; i < pairs.size(); ++i) {
        sim_cache_hits += 2 * SharedSamples(dendro2.node(pairs[i].first),
                                            dendro2.node(pairs[i].second));
        queue2.Push(
            {dists[i], pairs[i].first, pairs[i].second, 0.0, nullptr});
      }
      step2_candidates += pairs.size();
    }

    // Sequential from here: each merge invalidates candidates and emits
    // fresh ones against every live cluster, so iteration order is the
    // algorithm.
    CandidateMerge cand;
    while (queue2.Pop(&cand)) {
      HOM_ASSIGN_OR_RETURN(
          ClusterNode merged,
          MergeNodes(dendro2.node(cand.u), dendro2.node(cand.v)));
      HOM_LOG(kDebug) << "step2 merge " << cand.u << "(|D|="
                      << dendro2.node(cand.u).data.size()
                      << ",err=" << dendro2.node(cand.u).err << ") + "
                      << cand.v << "(|D|="
                      << dendro2.node(cand.v).data.size()
                      << ",err=" << dendro2.node(cand.v).err
                      << ") dist=" << cand.distance << " -> err="
                      << merged.err << " err*=" << merged.err_star;
      sim_cache_misses += fill_sample_predictions(&merged);
      int32_t wid = dendro2.AddMerge(cand.u, cand.v, std::move(merged));
      HOM_COUNTER_INC_LABELED("hom.cluster.merges", {{"step", "2"}});
      queue2.Retire(cand.u);
      queue2.Retire(cand.v);
      queue2.RegisterCluster(wid);
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](int32_t id) {
                                  return id == cand.u || id == cand.v;
                                }),
                 live.end());
      if (!ShouldStopMerging(dendro2.node(wid))) {
        for (int32_t other : live) {
          if (ShouldStopMerging(dendro2.node(other))) continue;
          ++step2_candidates;
          sim_cache_hits +=
              2 * SharedSamples(dendro2.node(wid), dendro2.node(other));
          queue2.Push({ModelDistance(dendro2.node(wid), dendro2.node(other)),
                       wid, other, 0.0, nullptr});
        }
      } else {
        HOM_COUNTER_INC("hom.cluster.early_terminations");
      }
      live.push_back(wid);
    }
    HOM_COUNTER_ADD_LABELED("hom.cluster.candidates", step2_candidates,
                            {{"step", "2"}});
  }

  std::vector<int32_t> concept_ids;
  {
    obs::ScopedSpan cut_span("final_cut");
    concept_ids = dendro2.FinalCut(live, config_.step2_cut_z);
  }

  HOM_COUNTER_ADD("hom.cluster.simcache.hits", sim_cache_hits);
  HOM_COUNTER_ADD("hom.cluster.simcache.misses", sim_cache_misses);
  if (sim_cache_hits + sim_cache_misses > 0) {
    HOM_GAUGE_SET("hom.cluster.simcache.hit_rate",
                  static_cast<double>(sim_cache_hits) /
                      static_cast<double>(sim_cache_hits + sim_cache_misses));
  }

  // ------------------------------------------------------------- Assemble
  ConceptClusteringResult result;
  result.num_chunks = chunk_ids.size();
  result.threads_used = pool.num_threads();
  result.pool_tasks = pool.tasks_executed();
  HOM_GAUGE_SET("hom.par.threads", static_cast<double>(result.threads_used));

  // Map each step-2 leaf (chunk) to its concept. Step-2 leaves occupy ids
  // [0, chunk_ids.size()) of dendro2 in stream order.
  size_t num_leaves = chunk_ids.size();
  std::vector<int> chunk_concept(num_leaves, -1);
  for (size_t c = 0; c < concept_ids.size(); ++c) {
    std::vector<int32_t> members;
    CollectLeaves(dendro2, concept_ids[c], &members);
    for (int32_t leaf : members) {
      HOM_CHECK_GE(leaf, 0);
      HOM_CHECK_LT(static_cast<size_t>(leaf), num_leaves);
      chunk_concept[static_cast<size_t>(leaf)] = static_cast<int>(c);
    }
  }

  // Occurrences: chunks in stream order, adjacent same-concept chunks
  // fused. chunk_ids is in stream order and step-2 leaf i came from
  // chunk_ids[i], so extent lookup goes through chunk_ids.
  for (size_t i = 0; i < num_leaves; ++i) {
    int cid = chunk_concept[i];
    HOM_CHECK_GE(cid, 0);
    const auto& ext = extent[static_cast<size_t>(chunk_ids[i])];
    if (!result.occurrences.empty() &&
        result.occurrences.back().concept_id == cid &&
        result.occurrences.back().end == ext.first) {
      result.occurrences.back().end = ext.second;
    } else {
      result.occurrences.push_back({ext.first, ext.second, cid});
    }
  }

  result.final_q = 0.0;
  for (size_t c = 0; c < concept_ids.size(); ++c) {
    const ClusterNode& node = dendro2.node(concept_ids[c]);
    result.concept_data.push_back(node.data);
    result.concept_errors.push_back(node.err);
    result.final_q += static_cast<double>(node.data.size()) * node.err;
  }
  HOM_COUNTER_ADD("hom.cluster.chunks", result.num_chunks);
  HOM_COUNTER_ADD("hom.cluster.concepts", result.concept_data.size());
  HOM_LOG(kInfo) << "concept clustering: " << result.num_chunks
                 << " chunks -> " << result.concept_data.size()
                 << " concepts (Q=" << result.final_q << ")";
  return result;
}

}  // namespace hom
