#ifndef HOM_HIGHORDER_ACTIVE_PROBABILITY_H_
#define HOM_HIGHORDER_ACTIVE_PROBABILITY_H_

#include <vector>

#include "highorder/concept_stats.h"

namespace hom {

/// \brief The online concept filter of Section III-B: tracks each concept's
/// active probability — P_t−(c) before seeing y_t (Eq. 5) and P_t(c) after
/// (Eqs. 7-9).
///
/// This is the forward pass of an HMM whose states are the stable concepts
/// and whose emission model is the per-concept classifier correctness
/// likelihood ψ (Eq. 8). The tracker itself is emission-agnostic: callers
/// supply ψ(c, y_t) values and it handles propagation + Bayes update.
class ActiveProbabilityTracker {
 public:
  /// Starts at the uniform prior P_1(c) = 1/N (Section III-B).
  explicit ActiveProbabilityTracker(ConceptStats stats);

  /// Prior active probabilities P_t−(c) — the weights Eq. 10 uses to
  /// classify the unlabeled record at time t.
  const std::vector<double>& prior() const { return prior_; }

  /// Posterior active probabilities P_t(c) after the last Observe().
  const std::vector<double>& posterior() const { return posterior_; }

  /// stats().Propagate(posterior()): the prior the next Observe() will
  /// use, which is also the classifier's Eq. 10 weights. Computed once per
  /// posterior and cached until the posterior changes, so a label pays for
  /// one propagation however many readers it has.
  const std::vector<double>& PropagatedPosterior();

  /// Consumes one labeled record's evidence: `psi[c]` = ψ(c, y_t) from
  /// Eq. 8 (1 - Err_c if M_c classified y_t correctly, else Err_c).
  /// Computes P_t−  from the previous posterior via χ, multiplies in the
  /// evidence, and renormalizes.
  void Observe(const std::vector<double>& psi);

  /// Advances the prior one step without evidence (used when labeled data
  /// stalls but time passes).
  void AdvanceWithoutEvidence();

  /// Consumes evidence that arrives after a `gap`-record silence (the
  /// Section III-B variable-rate setting): the prior is propagated through
  /// all `gap` elapsed ticks before the Bayes update. gap = 1 is Observe().
  void ObserveAfterGap(const std::vector<double>& psi, size_t gap);

  /// Resets to the uniform prior.
  void Reset();

  /// Reinstates the filter state captured in a serving checkpoint
  /// (highorder/checkpoint.h). Both vectors must have num_concepts()
  /// entries of finite, non-negative probabilities with positive mass;
  /// anything else (a corrupt checkpoint) is rejected with an error
  /// Status and the tracker is left untouched.
  Status Restore(std::vector<double> prior, std::vector<double> posterior);

  /// Index of the most probable current concept (by prior).
  size_t MostLikelyConcept() const;

  /// Index of the most probable current concept (by posterior).
  size_t MostLikelyConceptPosterior() const;

  /// Shannon entropy (nats) of the posterior — the model-health signal
  /// behind the "possible novel concept" alert: a posterior that stays
  /// near-uniform means no stored concept explains the stream.
  double PosteriorEntropy() const;

  /// PosteriorEntropy normalized by ln(num_concepts) into [0, 1]
  /// (0 when there is a single concept: a one-state filter is always
  /// certain).
  double PosteriorEntropyRatio() const;

  /// Posterior gap between the two most probable concepts (1.0 with a
  /// single concept): the confidence margin of the active choice.
  double TopConceptMargin() const;

  /// Entropy (nats) of an arbitrary distribution; zero-mass entries
  /// contribute nothing. Exposed for the serving layer to reuse on
  /// distributions it carries around as plain vectors.
  static double Entropy(const std::vector<double>& distribution);

  /// Gap between the largest and second-largest entry (the vector's own
  /// scale; 0 for empty, the single entry's value for size 1).
  static double TopMargin(const std::vector<double>& distribution);

  size_t num_concepts() const { return stats_.num_concepts(); }
  const ConceptStats& stats() const { return stats_; }

 private:
  /// Bayes update of Eq. 9 from prior_ and the evidence ψ; falls back to
  /// the prior when every concept gets (numerically) zero likelihood.
  void UpdatePosterior(const std::vector<double>& psi);

  ConceptStats stats_;
  std::vector<double> prior_;
  std::vector<double> posterior_;
  /// PropagatedPosterior()'s cache; valid only while `propagated_valid_`.
  std::vector<double> propagated_;
  bool propagated_valid_ = false;
};

}  // namespace hom

#endif  // HOM_HIGHORDER_ACTIVE_PROBABILITY_H_
