#include "highorder/highorder_classifier.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "classifiers/compiled_tree.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/request_timer.h"

namespace hom {

Result<std::unique_ptr<HighOrderClassifier>> HighOrderClassifier::Make(
    SchemaPtr schema, std::vector<ConceptModel> concepts, ConceptStats stats,
    HighOrderOptions options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("schema must not be null");
  }
  if (concepts.empty()) {
    return Status::InvalidArgument("need at least one concept model");
  }
  if (concepts.size() != stats.num_concepts()) {
    return Status::InvalidArgument(
        "concept count mismatch: " + std::to_string(concepts.size()) +
        " models vs " + std::to_string(stats.num_concepts()) + " stats");
  }
  for (const ConceptModel& c : concepts) {
    if (c.model == nullptr) {
      return Status::InvalidArgument("concept model must not be null");
    }
    if (!std::isfinite(c.error) || c.error < 0.0 || c.error > 1.0) {
      return Status::InvalidArgument("concept error must be in [0, 1]");
    }
  }
  return std::unique_ptr<HighOrderClassifier>(new HighOrderClassifier(
      std::move(schema), std::move(concepts), std::move(stats), options));
}

HighOrderClassifier::HighOrderClassifier(SchemaPtr schema,
                                         std::vector<ConceptModel> concepts,
                                         ConceptStats stats,
                                         HighOrderOptions options)
    : schema_(std::move(schema)),
      concepts_(std::move(concepts)),
      tracker_(std::move(stats)),
      options_(options),
      sanitizer_(schema_),
      until_latency_sample_(options.latency_sample_period) {
  weights_ = tracker_.prior();
  weight_order_.resize(concepts_.size());
  std::iota(weight_order_.begin(), weight_order_.end(), 0);
  // Concept models are frozen after the offline build, so their trees can
  // be flattened once here and served from the compiled form for the whole
  // online phase. Models without a compilable form (naive Bayes) keep a
  // null entry and go through the virtual path.
  compiled_.assign(concepts_.size(), nullptr);
  if (options_.use_compiled_kernels) {
    for (size_t c = 0; c < concepts_.size(); ++c) {
      concepts_[c].model->EnsureCompiled();
      compiled_[c] = concepts_[c].model->compiled();
    }
  }
}

void HighOrderClassifier::ObserveLabeled(const Record& y) {
  Record fixed;
  bool use_fixed = false;
  {
    // The hardening work (clean check / repair / distribution update) is
    // the request's sanitize stage; learning proper stays in observe.
    obs::ScopedRequestStage sanitize(obs::RequestStage::kSanitize);
    if (!y.is_labeled() || !sanitizer_.IsClean(y)) {
      if (y.is_labeled() &&
          input_policy_ == InputPolicy::kImputeMajority) {
        fixed = y;
        InputSanitizer::Report repair = sanitizer_.Repair(&fixed);
        if (repair.arity_ok) {
          HOM_COUNTER_INC("hom.online.input_imputed");
          obs::EmitIfActive(
              obs::EventType::kInputImputed, "highorder",
              static_cast<int64_t>(observations_), -1, -1,
              static_cast<double>(repair.repaired_fields +
                                  (repair.label_repaired ? 1 : 0)));
          use_fixed = true;
        }
      }
      if (!use_fixed) {
        // kError behaves like kSkip here: ObserveLabeled has no caller to
        // hand a Status to, so strictness is enforced at ingest (ReadCsv)
        // and the serving loop degrades to "drop and count" instead of
        // aborting.
        HOM_COUNTER_INC("hom.online.input_rejected");
        obs::EmitIfActive(obs::EventType::kInputRejected, "highorder",
                          static_cast<int64_t>(observations_), -1, -1, 0.0);
        return;
      }
    } else {
      sanitizer_.Learn(y);
    }
  }
  ObserveLabeledClean(use_fixed ? fixed : y);
}

void HighOrderClassifier::ObserveLabeledClean(const Record& y) {
  // ψ(c, y_t) of Eq. 8: the concept's classifier vouches for the record
  // with probability 1 - Err_c when it gets it right, Err_c otherwise.
  psi_.resize(concepts_.size());
  for (size_t c = 0; c < concepts_.size(); ++c) {
    Label guess = compiled_[c] != nullptr ? compiled_[c]->Predict(y)
                                          : concepts_[c].model->Predict(y);
    psi_[c] = guess == y.label ? 1.0 - concepts_[c].error : concepts_[c].error;
  }
  tracker_.Observe(psi_);
  weights_stale_ = true;
  ++observations_;
  HOM_COUNTER_INC("hom.online.observations");
  HOM_COUNTER_ADD("hom.online.psi_evaluations", concepts_.size());
}

void HighOrderClassifier::RefreshWeights() {
  if (!weights_stale_) return;
  weights_stale_ = false;
  // Eq. 10 weighs by the prior P_t− of the *next* timestamp, i.e. the
  // propagated posterior; the ablation flag weighs by the posterior P_t.
  // The tracker caches that propagation, and the next Observe() starts
  // from the same cached vector instead of computing it again.
  if (options_.weight_by_prior) {
    weights_ = tracker_.PropagatedPosterior();
  } else {
    weights_ = tracker_.posterior();
  }
  std::iota(weight_order_.begin(), weight_order_.end(), 0);
  std::sort(weight_order_.begin(), weight_order_.end(),
            [&](size_t a, size_t b) { return weights_[a] > weights_[b]; });
  if (weight_order_.empty()) return;
  size_t top = weight_order_[0];
  double top_weight = weights_[top];
  int64_t record = static_cast<int64_t>(observations_);
  if (options_.weight_by_prior) {
    // When the weights come from the propagated prior, a weight argmax that
    // disagrees with the posterior argmax is the Markov chain predicting the
    // next concept ahead of the evidence — the paper's proactive adaptation.
    const std::vector<double>& post = tracker_.posterior();
    size_t post_top = static_cast<size_t>(
        std::max_element(post.begin(), post.end()) - post.begin());
    if (top != post_top) {
      obs::EmitIfActive(obs::EventType::kHmmPrediction, "highorder", record,
                        static_cast<int64_t>(post_top),
                        static_cast<int64_t>(top), top_weight);
    }
  }
  if (last_top_concept_ != static_cast<size_t>(-1) &&
      top != last_top_concept_) {
    // A switch confirms the drift whether or not the weight dipped first;
    // emit the suspicion late if the hysteresis never caught it so a
    // ConceptSwitch is always preceded by a DriftSuspected/Confirmed pair.
    if (!drift_suspected_) {
      obs::EmitIfActive(obs::EventType::kDriftSuspected, "highorder", record,
                        static_cast<int64_t>(last_top_concept_), -1,
                        top_weight);
    }
    obs::EmitIfActive(obs::EventType::kDriftConfirmed, "highorder", record,
                      static_cast<int64_t>(last_top_concept_),
                      static_cast<int64_t>(top), top_weight);
    obs::EmitIfActive(obs::EventType::kConceptSwitch, "highorder", record,
                      static_cast<int64_t>(last_top_concept_),
                      static_cast<int64_t>(top), top_weight);
    drift_suspected_ = false;
    HOM_COUNTER_INC("hom.online.concept_switches");
#ifndef HOM_DISABLE_METRICS
    // Per-destination breakdown of the aggregate above. Switches fire at
    // concept-transition granularity, so the WithLabels mutex is nowhere
    // near the hot path; the label value set is bounded by the (small,
    // fixed) concept count.
    obs::MetricsRegistry::Global()
        .GetCounterFamily("hom.online.concept_switches")
        ->WithLabels({{"concept", std::to_string(top)}})
        ->Add();
#endif
  } else if (!drift_suspected_ && top_weight < options_.drift_suspect_weight) {
    obs::EmitIfActive(obs::EventType::kDriftSuspected, "highorder", record,
                      static_cast<int64_t>(top), -1, top_weight);
    drift_suspected_ = true;
    drift_suspected_since_ = observations_;
  } else if (drift_suspected_ && top_weight >= options_.drift_clear_weight) {
    // The incumbent recovered its grip; withdraw the suspicion silently.
    drift_suspected_ = false;
  }
  last_top_concept_ = top;
}

HighOrderRuntimeState HighOrderClassifier::ExportRuntimeState() const {
  HighOrderRuntimeState state;
  state.prior = tracker_.prior();
  state.posterior = tracker_.posterior();
  state.weights = weights_;
  state.weights_stale = weights_stale_;
  state.base_evaluations = base_evaluations_;
  state.predictions = predictions_;
  state.observations = observations_;
  state.last_top_concept = last_top_concept_ == static_cast<size_t>(-1)
                               ? -1
                               : static_cast<int64_t>(last_top_concept_);
  state.drift_suspected = drift_suspected_;
  state.until_latency_sample = until_latency_sample_;
  state.last_prediction = static_cast<int32_t>(last_prediction_);
  return state;
}

Status HighOrderClassifier::RestoreRuntimeState(
    const HighOrderRuntimeState& state) {
  size_t n = concepts_.size();
  if (state.weights.size() != n) {
    return Status::InvalidArgument(
        "checkpoint weights sized for " + std::to_string(state.weights.size()) +
        " concepts, model has " + std::to_string(n));
  }
  for (double w : state.weights) {
    if (!std::isfinite(w) || w < 0.0 || w > 1.0) {
      return Status::InvalidArgument(
          "checkpoint prediction weight outside [0, 1]");
    }
  }
  if (state.last_top_concept < -1 ||
      state.last_top_concept >= static_cast<int64_t>(n)) {
    return Status::InvalidArgument("checkpoint top concept out of range");
  }
  if (state.last_prediction < 0 ||
      static_cast<size_t>(state.last_prediction) >= schema_->num_classes()) {
    return Status::InvalidArgument(
        "checkpoint fallback prediction out of range");
  }
  // Validates prior/posterior; on failure the tracker (and therefore the
  // whole classifier) is untouched.
  HOM_RETURN_NOT_OK(tracker_.Restore(state.prior, state.posterior));
  weights_ = state.weights;
  weights_stale_ = state.weights_stale;
  // Re-derive the pruning order exactly as RefreshWeights would have left
  // it: same iota + sort over the same weights yields the same permutation.
  std::iota(weight_order_.begin(), weight_order_.end(), 0);
  std::sort(weight_order_.begin(), weight_order_.end(),
            [&](size_t a, size_t b) { return weights_[a] > weights_[b]; });
  base_evaluations_ = state.base_evaluations;
  predictions_ = state.predictions;
  observations_ = state.observations;
  last_top_concept_ = state.last_top_concept < 0
                          ? static_cast<size_t>(-1)
                          : static_cast<size_t>(state.last_top_concept);
  drift_suspected_ = state.drift_suspected;
  // The suspicion-start offset is not checkpointed; restart the dwell
  // clock at the restore point (monitoring-only divergence).
  drift_suspected_since_ = observations_;
  until_latency_sample_ = state.until_latency_sample;
  last_prediction_ = static_cast<Label>(state.last_prediction);
  return Status::OK();
}

Result<std::string> HighOrderClassifier::ExportSanitizerState() const {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(&out);
  HOM_RETURN_NOT_OK(sanitizer_.SaveTo(&writer));
  return std::move(out).str();
}

Status HighOrderClassifier::RestoreSanitizerState(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader reader(&in);
  HOM_RETURN_NOT_OK(sanitizer_.RestoreFrom(&reader));
  if (!reader.AtEof()) {
    return Status::InvalidArgument("sanitizer state has trailing bytes");
  }
  return Status::OK();
}

int64_t HighOrderClassifier::ActiveConcept() const {
  return last_top_concept_ == static_cast<size_t>(-1)
             ? -1
             : static_cast<int64_t>(last_top_concept_);
}

void HighOrderClassifier::ExportServingStatus(
    ServingStatusBoard::Progress* progress) const {
  progress->active_concept = ActiveConcept();
  progress->prior = tracker_.prior();
  progress->posterior = tracker_.posterior();
  progress->posterior_entropy = tracker_.PosteriorEntropy();
  progress->posterior_entropy_ratio = tracker_.PosteriorEntropyRatio();
  progress->top_concept_margin = tracker_.TopConceptMargin();
  progress->drift_suspected = drift_suspected_;
  progress->drift_dwell =
      drift_suspected_ ? observations_ - drift_suspected_since_ : 0;
}

void HighOrderClassifier::set_latency_sample_period(size_t period) {
  options_.latency_sample_period = period;
  until_latency_sample_ = period;
}

const std::vector<double>& HighOrderClassifier::active_probabilities() {
  RefreshWeights();
  return weights_;
}

void HighOrderClassifier::ConceptProbaInto(size_t c, const Record& x,
                                           std::vector<double>* mc) {
  if (compiled_[c] != nullptr) {
    compiled_[c]->PredictProbaInto(x, mc);
  } else if (options_.use_compiled_kernels) {
    concepts_[c].model->PredictProbaInto(x, mc);
  } else {
    // Ablation/bench baseline: the exact pre-kernel hot path, per-call
    // allocation included.
    *mc = concepts_[c].model->PredictProba(x);
  }
}

std::vector<double> HighOrderClassifier::PredictProba(const Record& x) {
  std::vector<double> proba;
  PredictProbaInto(x, &proba);
  return proba;
}

void HighOrderClassifier::PredictProbaInto(const Record& x,
                                           std::vector<double>* proba) {
  RefreshWeights();
  proba->assign(schema_->num_classes(), 0.0);
  size_t evaluated = 0;
  for (size_t c = 0; c < concepts_.size(); ++c) {
    if (weights_[c] <= 0.0) continue;
    ConceptProbaInto(c, x, &mc_scratch_);
    ++evaluated;
    for (size_t l = 0; l < proba->size(); ++l) {
      (*proba)[l] += weights_[c] * mc_scratch_[l];
    }
  }
  base_evaluations_ += evaluated;
  HOM_COUNTER_ADD("hom.online.base_evaluations", evaluated);
  HOM_COUNTER_ADD("hom.predict.concepts_skipped_total",
                  concepts_.size() - evaluated);
}

Label HighOrderClassifier::Predict(const Record& x) {
  Record fixed;
  bool use_fixed = false;
  {
    obs::ScopedRequestStage sanitize(obs::RequestStage::kSanitize);
    if (!sanitizer_.IsClean(x)) {
      // A prediction must always answer; repair what can be repaired
      // regardless of policy (the policy governs what *learns*, not what
      // the service returns).
      fixed = x;
      InputSanitizer::Report repair = sanitizer_.Repair(&fixed);
      if (!repair.arity_ok) {
        HOM_COUNTER_INC("hom.online.input_rejected");
        obs::EmitIfActive(obs::EventType::kInputRejected, "highorder",
                          static_cast<int64_t>(observations_), -1, -1, 0.0);
        return last_prediction_;
      }
      HOM_COUNTER_INC("hom.online.input_imputed");
      obs::EmitIfActive(obs::EventType::kInputImputed, "highorder",
                        static_cast<int64_t>(observations_), -1, -1,
                        static_cast<double>(repair.repaired_fields));
      use_fixed = true;
    }
  }
  last_prediction_ = PredictClean(use_fixed ? fixed : x);
  return last_prediction_;
}

Label HighOrderClassifier::PredictClean(const Record& x) {
  ++predictions_;
#ifndef HOM_DISABLE_METRICS
  // Sampled latency: timing every record would cost two clock reads per
  // prediction, which alone can break the <5% overhead budget on cheap
  // base models. Every latency_sample_period-th call (default 64) is
  // plenty for a stable histogram; 0 disables the clock entirely.
  if (options_.latency_sample_period != 0 && --until_latency_sample_ == 0) {
    until_latency_sample_ = options_.latency_sample_period;
    Stopwatch sw;
    Label out = PredictImpl(x);
    HOM_HISTOGRAM_RECORD("hom.online.predict_latency_us",
                         sw.ElapsedSeconds() * 1e6,
                         ::hom::obs::Histogram::DefaultLatencyBoundsUs());
    return out;
  }
#endif
  return PredictImpl(x);
}

Label HighOrderClassifier::PredictImpl(const Record& x) {
  RefreshWeights();
  if (!options_.prune_prediction) {
    PredictProbaInto(x, &proba_scratch_);
    return static_cast<Label>(
        std::max_element(proba_scratch_.begin(), proba_scratch_.end()) -
        proba_scratch_.begin());
  }
  // Section III-C pruning: walk concepts from the most to the least active.
  // After consuming probability mass `seen`, no trailing concept can add
  // more than (1 - seen) to any class score; once the leader's margin over
  // the runner-up exceeds that, the answer is final. With a clear current
  // concept this evaluates a single base classifier.
  std::vector<double>& proba = proba_scratch_;
  proba.assign(schema_->num_classes(), 0.0);
  double seen = 0.0;
  size_t evaluated = 0;
  for (size_t rank = 0; rank < weight_order_.size(); ++rank) {
    size_t c = weight_order_[rank];
    if (weights_[c] <= 0.0) break;  // sorted: the rest are zero too
    ConceptProbaInto(c, x, &mc_scratch_);
    ++evaluated;
    for (size_t l = 0; l < proba.size(); ++l) {
      proba[l] += weights_[c] * mc_scratch_[l];
    }
    seen += weights_[c];
    double remaining = 1.0 - seen;
    if (remaining <= 0.0) break;
    double best = -1.0;
    double second = -1.0;
    for (double p : proba) {
      if (p > best) {
        second = best;
        best = p;
      } else if (p > second) {
        second = p;
      }
    }
    if (best - second > remaining) break;
  }
  base_evaluations_ += evaluated;
  HOM_COUNTER_ADD("hom.online.base_evaluations", evaluated);
  HOM_COUNTER_ADD("hom.predict.concepts_skipped_total",
                  concepts_.size() - evaluated);
  return static_cast<Label>(std::max_element(proba.begin(), proba.end()) -
                            proba.begin());
}

void HighOrderClassifier::AccumulateConceptBatch(size_t c,
                                                 const Record* records,
                                                 const uint32_t* idx,
                                                 size_t count,
                                                 size_t num_classes) {
  const double w = weights_[c];
  if (compiled_[c] != nullptr) {
    compiled_[c]->AccumulateProbaBatch(records, idx, count, w, num_classes,
                                       batch_proba_.data());
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const Record& x = records[idx[i]];
    ConceptProbaInto(c, x, &mc_scratch_);
    double* row = batch_proba_.data() + static_cast<size_t>(idx[i]) * num_classes;
    for (size_t l = 0; l < num_classes; ++l) {
      row[l] += w * mc_scratch_[l];
    }
  }
}

void HighOrderClassifier::PredictBatch(const Record* records, size_t n,
                                       Label* out) {
  if (n == 0) return;
  bool all_clean = true;
  {
    obs::ScopedRequestStage sanitize(obs::RequestStage::kSanitize);
    for (size_t i = 0; i < n; ++i) {
      if (!sanitizer_.IsClean(records[i])) {
        all_clean = false;
        break;
      }
    }
  }
  if (!all_clean) {
    // Repair/fallback handling is per-record business; let the scalar
    // entry point deal with it for the whole batch.
    for (size_t i = 0; i < n; ++i) out[i] = Predict(records[i]);
    return;
  }
  RefreshWeights();
  const size_t num_classes = schema_->num_classes();
  batch_proba_.assign(n * num_classes, 0.0);
  size_t evaluated = 0;
  if (!options_.prune_prediction) {
    // Full mixture, concepts in index order — the same accumulation order
    // as PredictProbaInto, one sweep over the batch per concept.
    batch_active_.resize(n);
    std::iota(batch_active_.begin(), batch_active_.end(), 0u);
    for (size_t c = 0; c < concepts_.size(); ++c) {
      if (weights_[c] <= 0.0) continue;
      AccumulateConceptBatch(c, records, batch_active_.data(), n, num_classes);
      evaluated += n;
    }
  } else {
    // Section III-C pruning, batched: concepts go most-active-first and the
    // undecided-record list shrinks after each sweep. A record leaves the
    // list exactly when the scalar loop would have broken for it, so the
    // per-record evaluation sets (and sums, bit for bit) match Predict().
    batch_active_.resize(n);
    std::iota(batch_active_.begin(), batch_active_.end(), 0u);
    double seen = 0.0;
    for (size_t rank = 0;
         rank < weight_order_.size() && !batch_active_.empty(); ++rank) {
      size_t c = weight_order_[rank];
      if (weights_[c] <= 0.0) break;  // sorted: the rest are zero too
      AccumulateConceptBatch(c, records, batch_active_.data(),
                             batch_active_.size(), num_classes);
      evaluated += batch_active_.size();
      seen += weights_[c];
      double remaining = 1.0 - seen;
      if (remaining <= 0.0) break;
      size_t kept = 0;
      for (uint32_t r : batch_active_) {
        const double* row =
            batch_proba_.data() + static_cast<size_t>(r) * num_classes;
        double best = -1.0;
        double second = -1.0;
        for (size_t l = 0; l < num_classes; ++l) {
          double p = row[l];
          if (p > best) {
            second = best;
            best = p;
          } else if (p > second) {
            second = p;
          }
        }
        if (!(best - second > remaining)) batch_active_[kept++] = r;
      }
      batch_active_.resize(kept);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double* row = batch_proba_.data() + i * num_classes;
    size_t best = 0;
    for (size_t l = 1; l < num_classes; ++l) {
      if (row[l] > row[best]) best = l;
    }
    out[i] = static_cast<Label>(best);
  }
  predictions_ += n;
  last_prediction_ = out[n - 1];
  base_evaluations_ += evaluated;
  HOM_COUNTER_ADD("hom.online.base_evaluations", evaluated);
  HOM_COUNTER_ADD("hom.predict.batch_records", n);
  HOM_COUNTER_ADD("hom.predict.concepts_skipped_total",
                  n * concepts_.size() - evaluated);
}

}  // namespace hom
