#include "highorder/active_probability.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "obs/event_journal.h"

namespace hom {

ActiveProbabilityTracker::ActiveProbabilityTracker(ConceptStats stats)
    : stats_(std::move(stats)) {
  Reset();
}

void ActiveProbabilityTracker::Reset() {
  size_t n = stats_.num_concepts();
  prior_.assign(n, 1.0 / static_cast<double>(n));
  posterior_ = prior_;
  propagated_valid_ = false;
}

const std::vector<double>& ActiveProbabilityTracker::PropagatedPosterior() {
  if (!propagated_valid_) {
    stats_.PropagateInto(posterior_, &propagated_);
    propagated_valid_ = true;
  }
  return propagated_;
}

Status ActiveProbabilityTracker::Restore(std::vector<double> prior,
                                         std::vector<double> posterior) {
  size_t n = stats_.num_concepts();
  if (prior.size() != n || posterior.size() != n) {
    return Status::InvalidArgument(
        "checkpoint probability vectors sized for " +
        std::to_string(prior.size()) + "/" + std::to_string(posterior.size()) +
        " concepts, model has " + std::to_string(n));
  }
  for (const std::vector<double>* v : {&prior, &posterior}) {
    double total = 0.0;
    for (double p : *v) {
      if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "checkpoint active probability outside [0, 1]");
      }
      total += p;
    }
    if (total <= 1e-300) {
      return Status::InvalidArgument(
          "checkpoint active probabilities carry no mass");
    }
  }
  prior_ = std::move(prior);
  posterior_ = std::move(posterior);
  propagated_valid_ = false;
  return Status::OK();
}

void ActiveProbabilityTracker::UpdatePosterior(const std::vector<double>& psi) {
  size_t n = stats_.num_concepts();
  // Eq. 9: P_t(c) ∝ P_t−(c) ψ(c, y_t).
  double total = 0.0;
  for (size_t c = 0; c < n; ++c) {
    HOM_DCHECK(psi[c] >= 0.0);
    posterior_[c] = prior_[c] * psi[c];
    total += posterior_[c];
  }
  if (total <= 1e-300) {
    // All concepts assigned (numerically) zero likelihood: fall back to the
    // propagated prior rather than a NaN distribution.
    posterior_ = prior_;
    return;
  }
  for (double& p : posterior_) p /= total;
}

void ActiveProbabilityTracker::Observe(const std::vector<double>& psi) {
  HOM_CHECK_EQ(psi.size(), stats_.num_concepts());
  // Eq. 5: P_t−(c) = Σ_i P_{t-1}(i) χ(i, c). The cached propagation is
  // exactly that; the swap hands it over without a copy, and the update
  // below invalidates the cache anyway.
  PropagatedPosterior();
  prior_.swap(propagated_);
  propagated_valid_ = false;
  UpdatePosterior(psi);
}

void ActiveProbabilityTracker::ObserveAfterGap(const std::vector<double>& psi,
                                               size_t gap) {
  HOM_CHECK_EQ(psi.size(), stats_.num_concepts());
  HOM_CHECK_GE(gap, 1u);
  size_t before = MostLikelyConceptPosterior();
  prior_ = stats_.PropagateSteps(posterior_, gap);
  propagated_valid_ = false;
  // Bridging a label gap is pure chain prediction: record it when the
  // propagation alone moved the belief to another concept.
  size_t after = static_cast<size_t>(
      std::max_element(prior_.begin(), prior_.end()) - prior_.begin());
  if (after != before) {
    obs::EmitIfActive(obs::EventType::kHmmPrediction, "active_probability",
                      static_cast<int64_t>(gap), static_cast<int64_t>(before),
                      static_cast<int64_t>(after), prior_[after]);
  }
  UpdatePosterior(psi);
}

void ActiveProbabilityTracker::AdvanceWithoutEvidence() {
  size_t before = MostLikelyConceptPosterior();
  prior_ = PropagatedPosterior();
  posterior_ = prior_;
  propagated_valid_ = false;
  size_t after = MostLikelyConcept();
  if (after != before) {
    obs::EmitIfActive(obs::EventType::kHmmPrediction, "active_probability",
                      /*record=*/1, static_cast<int64_t>(before),
                      static_cast<int64_t>(after), prior_[after]);
  }
}

size_t ActiveProbabilityTracker::MostLikelyConcept() const {
  return static_cast<size_t>(
      std::max_element(prior_.begin(), prior_.end()) - prior_.begin());
}

size_t ActiveProbabilityTracker::MostLikelyConceptPosterior() const {
  return static_cast<size_t>(
      std::max_element(posterior_.begin(), posterior_.end()) -
      posterior_.begin());
}

double ActiveProbabilityTracker::Entropy(
    const std::vector<double>& distribution) {
  double entropy = 0.0;
  for (double p : distribution) {
    if (p > 0.0) entropy -= p * std::log(p);
  }
  return entropy;
}

double ActiveProbabilityTracker::TopMargin(
    const std::vector<double>& distribution) {
  if (distribution.empty()) return 0.0;
  double top = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  for (double p : distribution) {
    if (p > top) {
      second = top;
      top = p;
    } else if (p > second) {
      second = p;
    }
  }
  return std::isinf(second) ? top : top - second;
}

double ActiveProbabilityTracker::PosteriorEntropy() const {
  return Entropy(posterior_);
}

double ActiveProbabilityTracker::PosteriorEntropyRatio() const {
  if (num_concepts() <= 1) return 0.0;
  return PosteriorEntropy() / std::log(static_cast<double>(num_concepts()));
}

double ActiveProbabilityTracker::TopConceptMargin() const {
  return TopMargin(posterior_);
}

}  // namespace hom
