#include "obs/metric_help.h"

#include <map>
#include <mutex>

namespace hom::obs {

namespace {

struct HelpEntry {
  const char* name;
  const char* help;
};

/// Built-in help for the hom.* metric families (dotted registry names).
/// Kept alphabetical so a scrape diff and this table read the same way.
constexpr HelpEntry kBuiltinHelp[] = {
    {"hom.alerts.evaluations",
     "Alert rule evaluations performed across all snapshot ticks."},
    {"hom.alerts.firing", "Alert rules currently in the firing state."},
    {"hom.alerts.state",
     "Per-rule alert state: 0 inactive, 1 pending, 2 firing."},
    {"hom.alerts.transitions",
     "Alert fire/resolve transitions since startup."},
    {"hom.build.count", "Offline model builds completed."},
    {"hom.build.final_classifiers_trained",
     "Concept classifiers trained for the final model."},
    {"hom.build.last_seconds", "Wall seconds of the most recent build."},
    {"hom.build.records", "Historical records consumed by builds."},
    {"hom.cluster.candidates",
     "Merge candidates considered during concept clustering."},
    {"hom.cluster.chunks", "Input chunks fed to concept clustering."},
    {"hom.cluster.classifiers_reused",
     "Classifier trainings avoided by reuse during clustering, by phase: "
     "step-1 candidate scoring or step-2 merge. Step-1 merges adopt the "
     "scored classifier and count in neither."},
    {"hom.cluster.classifiers_trained",
     "Classifiers trained during concept clustering, by phase: leaf block, "
     "step-1 candidate scoring or step-2 merge. Step-1 merges adopt the "
     "scored classifier and count in neither."},
    {"hom.cluster.concepts", "Stable concepts in the final clustering."},
    {"hom.cluster.early_terminations",
     "Merge evaluations cut short by the quality bound."},
    {"hom.cluster.merges", "Cluster merges committed."},
    {"hom.cluster.simcache.hit_rate",
     "Similarity-cache hit rate over the last build."},
    {"hom.cluster.simcache.hits", "Similarity-cache hits."},
    {"hom.cluster.simcache.misses", "Similarity-cache misses."},
    {"hom.concept.activations",
     "Times the concept became the active predictor."},
    {"hom.concept.brier_score",
     "Mean multi-class Brier score of sampled probability predictions "
     "attributed to the concept (0 = perfectly calibrated and sharp)."},
    {"hom.concept.error_rate", "Cumulative error rate of the concept."},
    {"hom.concept.records", "Predictions attributed to the concept."},
    {"hom.concept.windowed_error_rate",
     "Error rate of the concept over its recent-record window."},
    {"hom.dendrogram.cut_keeps", "Dendrogram cut decisions keeping a merge."},
    {"hom.dendrogram.cut_splits",
     "Dendrogram cut decisions splitting a merge."},
    {"hom.eval.records", "Records scored by evaluation harnesses."},
    {"hom.eval.records_per_sec",
     "Throughput of the most recent evaluation run."},
    {"hom.hmm.baum_welch_steps", "Baum-Welch iterations run."},
    {"hom.hmm.forward_calls", "HMM forward-pass invocations."},
    {"hom.hmm.viterbi_calls", "HMM Viterbi invocations."},
    {"hom.journal.dropped",
     "Journal events evicted from the ring, by event type."},
    {"hom.merge_queue.pops", "Merge-queue pops."},
    {"hom.merge_queue.pushes", "Merge-queue pushes."},
    {"hom.merge_queue.stale_pops",
     "Merge-queue pops discarded as stale."},
    {"hom.online.base_evaluations",
     "Base-classifier evaluations during online prediction."},
    {"hom.online.concept_switches",
     "Active-concept switches during online serving."},
    {"hom.online.input_imputed",
     "Malformed records repaired by the input policy."},
    {"hom.online.input_rejected",
     "Malformed records dropped by the input policy."},
    {"hom.online.observations", "Labeled records observed online."},
    {"hom.online.predict_latency_us",
     "Per-record prediction latency in microseconds (sampled)."},
    {"hom.online.psi_evaluations",
     "Concept-similarity (psi) evaluations online."},
    {"hom.par.items", "Work items executed by the thread pool."},
    {"hom.par.parallel_loops", "ParallelFor loops dispatched."},
    {"hom.par.threads", "Thread-pool size of the last parallel build."},
    {"hom.predict.batch_records",
     "Records classified through the batched prediction entry point."},
    {"hom.predict.concepts_skipped_total",
     "Concept evaluations avoided by zero weights and Section III-C "
     "pruning."},
    {"hom.replication.acked_sequence",
     "Checkpoint sequence the standby last acknowledged to this primary."},
    {"hom.replication.applied",
     "Replication checkpoints applied by this standby."},
    {"hom.replication.applied_sequence",
     "Checkpoint sequence this standby last applied."},
    {"hom.replication.apply_failures",
     "Uploaded checkpoints rejected by this standby (corrupt, stale, or "
     "mismatched)."},
    {"hom.replication.heartbeat_age_seconds",
     "Seconds since the standby last heard from its primary."},
    {"hom.replication.lag_records",
     "Records the primary has scored beyond the standby's applied "
     "checkpoint."},
    {"hom.replication.promotions",
     "Standby-to-primary promotions performed by this process."},
    {"hom.replication.ship_attempts",
     "Checkpoint upload attempts sent on the wire (including retries)."},
    {"hom.replication.ship_failures",
     "Checkpoint ships abandoned after the retry budget."},
    {"hom.replication.ship_retries",
     "Checkpoint upload retries triggered by transport faults or "
     "rejections."},
    {"hom.replication.shipped_bytes",
     "Bytes of checkpoint payload acknowledged by the standby."},
    {"hom.replication.ships",
     "Checkpoints successfully shipped to the standby."},
    {"hom.replication.swap_pause_ms",
     "Milliseconds the serving loop paused for the most recent hot model "
     "swap."},
    {"hom.replication.swaps",
     "Hot model swaps completed under live traffic."},
    {"hom.serve.stage_seconds",
     "Per-request stage latency (parse/sanitize/predict/observe/"
     "checkpoint and HTTP stages) in seconds; record stages are timed "
     "for 1 record in 64 plus every checkpointing record."},
    {"hom.server.dropped",
     "HTTP requests shed with 503 by the bounded queue."},
    {"hom.server.request_latency_us",
     "Introspection-server request latency in microseconds."},
    {"hom.server.requests",
     "Introspection-server requests, by path and status code."},
    {"hom.serving.active_concept",
     "Concept id the serving loop currently predicts with (-1 none)."},
    {"hom.serving.checkpoint_age_seconds",
     "Seconds since the last serving checkpoint (-1 before the first)."},
    {"hom.serving.drift_dwell",
     "Records spent in the current unconfirmed drift-suspicion stretch."},
    {"hom.serving.drift_suspected",
     "1 while the drift detector suspects (but has not confirmed) a "
     "concept change, else 0."},
    {"hom.serving.error_rate", "Cumulative serving error rate."},
    {"hom.serving.error_slo",
     "Configured windowed-error SLO the alert pack compares against."},
    {"hom.serving.errors", "Serving prediction errors so far."},
    {"hom.serving.posterior",
     "Drift-filter posterior probability per concept."},
    {"hom.serving.posterior_entropy",
     "Shannon entropy (nats) of the drift-filter posterior."},
    {"hom.serving.posterior_entropy_ratio",
     "Posterior entropy normalized by ln(num concepts): 1 = maximally "
     "uncertain, 0 = fully confident."},
    {"hom.serving.prior", "Drift-filter prior probability per concept."},
    {"hom.serving.records", "Records scored by the serving loop."},
    {"hom.serving.top_concept_margin",
     "Posterior gap between the top two concepts (confidence margin)."},
    {"hom.serving.windowed_error_rate",
     "Error rate over the recent progress window (the SLO signal)."},
    {"hom.timeseries.dropped_series",
     "Series rejected by the time-series store's max_series cap."},
    {"hom.timeseries.series", "Live series in the time-series store."},
    {"hom.timeseries.ticks", "Snapshot ticks taken by the time-series "
     "store."},
    {"hom.trace.dropped",
     "Spans evicted from the in-process trace ring by overflow."},
    {"hom.trace.spans", "Distributed-trace spans recorded."},
    {"hom_build_info",
     "Build/model identity; value is always 1, the labels carry the "
     "information."},
};

std::mutex g_mu;

std::map<std::string, std::string, std::less<>>* HelpTable() {
  static auto* table = [] {
    auto* t = new std::map<std::string, std::string, std::less<>>();
    for (const HelpEntry& entry : kBuiltinHelp) {
      t->emplace(entry.name, entry.help);
    }
    return t;
  }();
  return table;
}

}  // namespace

void RegisterMetricHelp(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(g_mu);
  (*HelpTable())[std::string(name)] = std::string(help);
}

std::string FindMetricHelp(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_mu);
  const auto& table = *HelpTable();
  auto it = table.find(name);
  return it == table.end() ? std::string() : it->second;
}

std::vector<std::string> MetricHelpNames() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<std::string> names;
  const auto& table = *HelpTable();
  names.reserve(table.size());
  for (const auto& [name, help] : table) names.push_back(name);
  return names;
}

std::string EscapeHelpText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace hom::obs
