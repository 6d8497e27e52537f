#ifndef HOM_HIGHORDER_HIGHORDER_CLASSIFIER_H_
#define HOM_HIGHORDER_HIGHORDER_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classifiers/classifier.h"
#include "common/result.h"
#include "data/sanitize.h"
#include "eval/serving_status.h"
#include "eval/stream_classifier.h"
#include "highorder/active_probability.h"

namespace hom {

/// One stable concept of the high-order model: its offline-trained base
/// classifier M_c and its validation error Err_c (used by the likelihood
/// ψ of Eq. 8).
struct ConceptModel {
  std::unique_ptr<Classifier> model;
  double error = 0.0;
  size_t training_records = 0;  ///< diagnostic: |D_c|
};

/// Behaviour switches of the online phase. All default to the paper's
/// choices; the alternatives exist for the ablation benchmarks.
struct HighOrderOptions {
  /// Weigh concept classifiers by the prior P_t− (Eq. 10). When false, the
  /// posterior P_t is used instead (ablation).
  bool weight_by_prior = true;
  /// Section III-C speedup: when only the argmax label is needed, evaluate
  /// concepts in decreasing active probability and stop once the answer
  /// can no longer change.
  bool prune_prediction = true;
  /// Flatten every concept's frozen tree into a compiled SoA kernel
  /// (classifiers/compiled_tree.h) at construction and serve predictions
  /// from it. The compiled walk is verified bit-identical to the pointer
  /// walk; disabling this (ablation / bench baseline) falls back to the
  /// per-call allocating pointer walk the pre-kernel code used.
  bool use_compiled_kernels = true;
  /// Every `latency_sample_period`-th Predict() is wall-clock timed into
  /// the "hom.online.predict_latency_us" histogram; 0 disables sampling
  /// entirely. The default (64) keeps the two clock reads per sample well
  /// inside the 5% instrumentation budget even on trivial base models
  /// while still filling the histogram quickly. Also settable after model
  /// load via set_latency_sample_period() (homctl --latency-sample).
  size_t latency_sample_period = 64;
  /// Drift event hysteresis for the journal (obs::EventJournal): a
  /// DriftSuspected fires when the top concept's prediction weight sinks
  /// below `drift_suspect_weight` (its grip on the stream is slipping);
  /// the suspicion is withdrawn once the weight recovers above
  /// `drift_clear_weight`. A weight-argmax change always emits
  /// DriftSuspected (if not already pending) + DriftConfirmed +
  /// ConceptSwitch, in that order.
  double drift_suspect_weight = 0.55;
  double drift_clear_weight = 0.70;
};

/// \brief Everything the online classifier accumulates while serving a
/// stream — the state a serving checkpoint (highorder/checkpoint.h) must
/// capture so a restarted process continues bit-for-bit where the dead one
/// stopped. The offline-trained model itself (concepts, stats, schema) is
/// NOT here; it reloads from the model file.
struct HighOrderRuntimeState {
  /// Markov-filter state: P_t−(c) and P_t(c) (Eqs. 5-9).
  std::vector<double> prior;
  std::vector<double> posterior;
  /// Cached prediction weights and whether a labeled record has arrived
  /// since they were last refreshed.
  std::vector<double> weights;
  bool weights_stale = false;
  /// Counters feeding metrics and journal record numbers.
  uint64_t base_evaluations = 0;
  uint64_t predictions = 0;
  uint64_t observations = 0;
  /// Drift-hysteresis state (-1 = no top concept yet).
  int64_t last_top_concept = -1;
  bool drift_suspected = false;
  /// Predictions left until the next sampled latency measurement.
  uint64_t until_latency_sample = 0;
  /// Fallback answer for unclassifiable (wrong-arity) records.
  int32_t last_prediction = 0;
};

/// \brief The online high-order classifier of Section III: a Markov filter
/// over the discovered stable concepts plus a probability-weighted ensemble
/// of their offline-trained classifiers.
///
/// ObserveLabeled() consumes the online training stream Y and maintains
/// each concept's active probability; Predict()/PredictProba() classify the
/// unlabeled stream X via Eq. 10/11. Unlike the baselines, no classifier is
/// ever trained online — that is the entire point of the paper.
class HighOrderClassifier : public StreamClassifier {
 public:
  /// Validates inputs and assembles the classifier. `concepts` and `stats`
  /// must agree on the number of concepts; every error must be in [0, 1].
  static Result<std::unique_ptr<HighOrderClassifier>> Make(
      SchemaPtr schema, std::vector<ConceptModel> concepts,
      ConceptStats stats, HighOrderOptions options = {});

  Label Predict(const Record& x) override;
  std::vector<double> PredictProba(const Record& x) override;
  void PredictProbaInto(const Record& x, std::vector<double>* proba) override;
  void ObserveLabeled(const Record& y) override;

  /// Classifies `n` records in one pass: for each concept (most active
  /// first under prune_prediction) the compiled kernel sweeps every record
  /// still undecided, so a tree's arrays are streamed once per concept
  /// instead of once per record. Weights are refreshed once up front —
  /// batching is only meaningful between ObserveLabeled() calls, when the
  /// weights are constant — and the outputs are exactly what n Predict()
  /// calls would have returned (same accumulation order, same pruning
  /// stops). Falls back to per-record Predict() when any record needs
  /// sanitizing. Latency sampling does not apply to batched calls.
  void PredictBatch(const Record* records, size_t n, Label* out);
  std::string name() const override { return "High-order"; }
  size_t num_classes() const override { return schema_->num_classes(); }
  /// The concept currently holding the largest prediction weight (as of
  /// the last weight refresh), or -1 before the first one.
  int64_t ActiveConcept() const override;

  /// Runtime override of HighOrderOptions::latency_sample_period (0
  /// disables latency sampling); applies from the next Predict().
  void set_latency_sample_period(size_t period);

  /// Malformed-input policy for the online streams. The default (kSkip)
  /// drops bad labeled records; kImputeMajority repairs them from running
  /// statistics. kError behaves like kSkip here — the online loop has no
  /// caller to hand a Status to; strict rejection belongs to ingest
  /// (ReadCsv). Predictions are never refused: a repairable record is
  /// always imputed for Predict() and an unrepairable one answers with the
  /// previous prediction. Every rejection/imputation bumps the
  /// "hom.online.input_rejected"/"hom.online.input_imputed" counters and
  /// journals an InputRejected/InputImputed event.
  void set_input_policy(InputPolicy policy) { input_policy_ = policy; }
  InputPolicy input_policy() const { return input_policy_; }

  /// Snapshots the serving state for a checkpoint. Pure read; the
  /// classifier keeps running unaffected.
  HighOrderRuntimeState ExportRuntimeState() const;

  /// Reinstates a snapshot taken by ExportRuntimeState on a classifier
  /// loaded from the same model, after which predictions and journal
  /// events continue exactly as if the process had never stopped. Rejects
  /// state whose vectors do not match this model's concept count or whose
  /// values are non-finite/out of range (a corrupt or mismatched
  /// checkpoint), leaving the classifier untouched.
  Status RestoreRuntimeState(const HighOrderRuntimeState& state);

  /// Fills the drift-filter view of a ServingStatusBoard::Progress — the
  /// active concept and the Markov filter's prior/posterior — leaving the
  /// stream counts (records/errors) to the caller, which owns them. Pure
  /// read; the serving loop calls it from its progress callback.
  void ExportServingStatus(ServingStatusBoard::Progress* progress) const;

  /// Serialized imputation statistics, checkpointed alongside the runtime
  /// state so majority imputation survives a restart.
  Result<std::string> ExportSanitizerState() const;
  Status RestoreSanitizerState(const std::string& bytes);

  size_t num_concepts() const { return concepts_.size(); }
  const ConceptModel& concept_model(size_t c) const { return concepts_[c]; }
  const ActiveProbabilityTracker& tracker() const { return tracker_; }
  const HighOrderOptions& options() const { return options_; }
  const SchemaPtr& schema() const { return schema_; }

  /// Active probabilities P_t−(c) used to weigh the next prediction.
  const std::vector<double>& active_probabilities();

  /// Diagnostics for the pruning ablation: base-model evaluations spent in
  /// Predict() so far, and Predict() call count.
  size_t base_evaluations() const { return base_evaluations_; }
  size_t predictions() const { return predictions_; }

 private:
  HighOrderClassifier(SchemaPtr schema, std::vector<ConceptModel> concepts,
                      ConceptStats stats, HighOrderOptions options);

  /// Recomputes the cached prior if a labeled record arrived since the
  /// last prediction.
  void RefreshWeights();

  /// Predict()/ObserveLabeled() bodies once the record is known clean;
  /// the public entry points sanitize first.
  Label PredictClean(const Record& x);
  void ObserveLabeledClean(const Record& y);

  /// Predict() body; split out so the public entry point can time a
  /// sampled subset of calls without paying for a clock on every record.
  Label PredictImpl(const Record& x);

  /// Writes concept c's class distribution for `x` into `*mc`: compiled
  /// kernel when available, allocation-free pointer walk otherwise, or the
  /// legacy allocating walk when use_compiled_kernels is off (so the bench
  /// ablation measures exactly the pre-kernel hot path).
  void ConceptProbaInto(size_t c, const Record& x, std::vector<double>* mc);

  /// Adds weights_[c] * M_c(l | records[idx[i]]) into the batch_proba_
  /// rows selected by `idx` (batched counterpart of ConceptProbaInto).
  void AccumulateConceptBatch(size_t c, const Record* records,
                              const uint32_t* idx, size_t count,
                              size_t num_classes);

  SchemaPtr schema_;
  std::vector<ConceptModel> concepts_;
  ActiveProbabilityTracker tracker_;
  HighOrderOptions options_;
  InputPolicy input_policy_ = InputPolicy::kSkip;
  InputSanitizer sanitizer_;
  /// Fallback answer when a record is too malformed to classify (wrong
  /// arity): the previous prediction, the cheapest persistence forecast.
  Label last_prediction_ = 0;
  /// Concept weights for the current timestamp (P_t− by default), cached
  /// across the unlabeled records sharing that timestamp.
  std::vector<double> weights_;
  bool weights_stale_ = false;
  std::vector<size_t> weight_order_;  ///< concepts sorted by weight, desc.
  size_t base_evaluations_ = 0;
  size_t predictions_ = 0;
  /// Labeled records consumed so far; the `record` field of emitted
  /// journal events.
  size_t observations_ = 0;
  /// Most recent argmax of the concept weights; tracks concept switches
  /// for the "hom.online.concept_switches" counter and the journal's
  /// ConceptSwitch events.
  size_t last_top_concept_ = static_cast<size_t>(-1);
  /// Whether a DriftSuspected is pending (emitted, not yet confirmed or
  /// withdrawn) — see HighOrderOptions::drift_suspect_weight.
  bool drift_suspected_ = false;
  /// observations_ at the moment the pending suspicion was raised; the
  /// exported drift-dwell signal is observations_ - this while suspected.
  /// Monitoring-only (not checkpointed): a resumed run restarts the dwell
  /// clock at the restore point.
  size_t drift_suspected_since_ = 0;
  /// Predictions left until the next sampled latency measurement.
  size_t until_latency_sample_ = 0;
  /// Per-concept compiled kernels, parallel to concepts_; nullptr entries
  /// fall back to the virtual PredictProba path (non-tree models,
  /// use_compiled_kernels off). Owned by the concept models themselves.
  std::vector<const CompiledTree*> compiled_;
  /// Reused scratch: one concept's distribution (mc_scratch_), the mixture
  /// accumulator of the argmax paths (proba_scratch_), the evidence of one
  /// labeled record (psi_), and the batch row-major [record][class]
  /// accumulator plus undecided-record list.
  std::vector<double> mc_scratch_;
  std::vector<double> proba_scratch_;
  std::vector<double> psi_;
  std::vector<double> batch_proba_;
  std::vector<uint32_t> batch_active_;
};

}  // namespace hom

#endif  // HOM_HIGHORDER_HIGHORDER_CLASSIFIER_H_
