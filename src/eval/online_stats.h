#ifndef HOM_EVAL_ONLINE_STATS_H_
#define HOM_EVAL_ONLINE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "data/record.h"
#include "obs/json.h"

namespace hom {

/// \brief Per-concept online accounting for the prequential protocol.
///
/// Attributes every scored prediction to the concept the classifier
/// reported active at that moment (StreamClassifier::ActiveConcept) and
/// keeps, per concept: activation count (transitions into the concept),
/// dwell time (records attributed to it, total and per current stretch),
/// cumulative and recent-window error, and a confusion matrix. The
/// snapshot lands in telemetry JSON next to the metrics registry so a
/// single evaluate run shows not just *that* the model switched, but how
/// each concept behaved while it held the stream.
///
/// Concepts are keyed by the classifier's id (-1 = "no active concept");
/// entries appear on first attribution, so methods with a dynamic model
/// pool (RePro histories) need no upfront sizing.
class OnlineConceptStats {
 public:
  struct ConceptEntry {
    uint64_t activations = 0;  ///< times the concept became active
    uint64_t records = 0;      ///< predictions attributed to it
    uint64_t errors = 0;       ///< of which wrong
    /// Ring of the last `window` 0/1 error flags for this concept.
    std::vector<uint8_t> recent;
    size_t recent_head = 0;
    uint64_t recent_errors = 0;
    /// Row-major `num_classes x num_classes` counts, [truth][predicted].
    std::vector<uint64_t> confusion;
    /// Calibration accounting: sum of multi-class Brier scores
    /// Σ_k (p_k − 1[k = truth])² over the sampled probability predictions
    /// attributed to this concept (ObserveCalibration).
    double brier_sum = 0.0;
    uint64_t brier_count = 0;

    double error_rate() const {
      return records == 0
                 ? 0.0
                 : static_cast<double>(errors) / static_cast<double>(records);
    }
    /// Error rate over the last min(records, window) attributed records.
    double windowed_error_rate() const {
      return recent.empty() ? 0.0
                            : static_cast<double>(recent_errors) /
                                  static_cast<double>(recent.size());
    }
    /// Mean Brier score of the sampled probability predictions: 0 =
    /// perfectly calibrated and sharp, 2 = confidently wrong every time.
    double brier_score() const {
      return brier_count == 0
                 ? 0.0
                 : brier_sum / static_cast<double>(brier_count);
    }
  };

  /// `window` bounds the per-concept recent-error ring (0 disables it).
  explicit OnlineConceptStats(size_t num_classes, size_t window = 500);

  /// Attributes one scored prediction to `concept_id`.
  void Observe(int64_t concept_id, Label truth, Label predicted);

  /// Attributes one sampled probability prediction to `concept_id`:
  /// accumulates the multi-class Brier score of `proba` against `truth`.
  /// `proba` is truncated/zero-padded to num_classes entries; an
  /// out-of-range truth contributes the all-zeros one-hot. Does not touch
  /// the activation/dwell accounting — the prequential harness calls
  /// Observe for every record and this for the sampled subset
  /// (PrequentialOptions::calibration_sample_period).
  void ObserveCalibration(int64_t concept_id, Label truth,
                          const std::vector<double>& proba);

  size_t num_classes() const { return num_classes_; }
  size_t window() const { return window_; }
  uint64_t total_records() const { return total_records_; }
  uint64_t total_switches() const { return total_switches_; }
  /// The concept the last Observe() was attributed to (-1 before any).
  int64_t current_concept() const { return current_concept_; }
  const std::map<int64_t, ConceptEntry>& concepts() const {
    return concepts_;
  }

  /// Serializes the full accounting (counters, rings, confusion matrices)
  /// so a serving checkpoint can resume attribution mid-stream.
  Status SaveTo(BinaryWriter* writer) const;

  /// Reads a snapshot written by SaveTo. Every length field is bounded and
  /// cross-checked (ring ≤ window, confusion = num_classes², flags 0/1),
  /// so a corrupted checkpoint yields an error Status, never a bad alloc.
  static Result<OnlineConceptStats> LoadFrom(BinaryReader* reader);

  /// {"window": ..., "records": ..., "switches": ...,
  ///  "concepts": {"<id>": {"activations", "records", "errors",
  ///                        "error_rate", "windowed_error_rate",
  ///                        "mean_dwell", "confusion": [[...], ...]}}}.
  obs::JsonValue ToJson() const;

 private:
  size_t num_classes_;
  size_t window_;
  uint64_t total_records_ = 0;
  uint64_t total_switches_ = 0;
  int64_t current_concept_ = -1;
  bool any_ = false;
  std::map<int64_t, ConceptEntry> concepts_;
};

}  // namespace hom

#endif  // HOM_EVAL_ONLINE_STATS_H_
