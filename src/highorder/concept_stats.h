#ifndef HOM_HIGHORDER_CONCEPT_STATS_H_
#define HOM_HIGHORDER_CONCEPT_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "highorder/concept_clustering.h"

namespace hom {

/// \brief Historical concept change statistics (Section III-B): per-concept
/// mean occurrence length Len_i, occurrence frequency Freq_i, and the
/// induced transition kernel χ(i, j) of Eq. 6.
///
/// χ(i, i) = 1 - 1/Len_i (probability of staying), and for i != j,
/// χ(i, j) = (1/Len_i) * Freq_j / (1 - Freq_i) (probability of leaving
/// times the chance that j is the successor). Rows sum to 1.
class ConceptStats {
 public:
  /// Derives statistics from the occurrence sequence found by concept
  /// clustering. `num_concepts` must cover every id in `occurrences`.
  static Result<ConceptStats> FromOccurrences(
      const std::vector<ConceptOccurrence>& occurrences, size_t num_concepts);

  /// Builds statistics directly (tests and simulation scenarios).
  static Result<ConceptStats> FromLengthsAndFrequencies(
      std::vector<double> mean_lengths, std::vector<double> frequencies);

  size_t num_concepts() const { return mean_lengths_.size(); }
  double mean_length(size_t c) const { return mean_lengths_[c]; }
  double frequency(size_t c) const { return frequencies_[c]; }

  /// Transition probability χ(from, to).
  double Chi(size_t from, size_t to) const;

  /// Applies one step of the concept Markov chain: out[j] = Σ_i p[i]χ(i,j)
  /// (Eq. 5). `p` must have num_concepts() entries.
  std::vector<double> Propagate(const std::vector<double>& p) const;

  /// Propagate() into the caller's buffer, which is resized to
  /// num_concepts() and so allocates only on first use. `out` must not
  /// alias `p`.
  void PropagateInto(const std::vector<double>& p,
                     std::vector<double>* out) const;

  /// Applies `steps` chain steps at once — the Section III-B variable-rate
  /// revision: when records arrive with gaps (in record-clock units), the
  /// prior must be propagated through every elapsed tick, not just one.
  /// Uses χ^steps via exponentiation-by-squaring for large gaps.
  std::vector<double> PropagateSteps(const std::vector<double>& p,
                                     size_t steps) const;

  std::string ToString() const;

 private:
  ConceptStats(std::vector<double> lengths, std::vector<double> freqs);
  void BuildChi();

  std::vector<double> mean_lengths_;
  std::vector<double> frequencies_;
  std::vector<double> chi_;  ///< row-major [from][to]
};

}  // namespace hom

#endif  // HOM_HIGHORDER_CONCEPT_STATS_H_
