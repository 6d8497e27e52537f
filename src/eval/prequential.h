#ifndef HOM_EVAL_PREQUENTIAL_H_
#define HOM_EVAL_PREQUENTIAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "eval/online_stats.h"
#include "eval/stream_classifier.h"
#include "obs/request_timer.h"

namespace hom {

/// Harness position handed to the checkpoint callback: everything the
/// eval loop itself accumulates (the classifier's own state is captured
/// separately by the caller). All counts are absolute stream positions, so
/// a resumed run's numbers continue the original sequence.
struct PrequentialProgress {
  uint64_t record = 0;         ///< records scored so far (incl. resumed)
  uint64_t num_errors = 0;     ///< of which wrong
  uint64_t window_errors = 0;  ///< partial WindowError block in flight
  uint64_t window_fill = 0;
};

/// Options of a prequential run.
struct PrequentialOptions {
  /// Keep the per-record correctness series (needed by the change-aligned
  /// traces of Figure 5).
  bool record_trace = false;
  /// Fraction of records whose labels are revealed to the classifier.
  /// 1.0 = every record is labeled after prediction (the paper's setting:
  /// "records with the same timestamp are generated by the same
  /// mechanism"). Lower values simulate labeling overhead.
  double labeled_fraction = 1.0;
  /// Seed for the labeled-record subsampling when labeled_fraction < 1.
  uint64_t label_seed = 7;
  /// Attribute every prediction to the classifier's ActiveConcept() and
  /// accumulate per-concept online statistics into the result
  /// (OnlineConceptStats).
  bool track_concept_stats = false;
  /// Recent-error ring size for the per-concept stats, and the block size
  /// of the WindowError journal events the harness emits (every
  /// `journal_error_window` records while an obs::EventJournal is active;
  /// 0 disables both).
  size_t journal_error_window = 500;
  /// Every `calibration_sample_period`-th record (absolute stream
  /// position; 0 disables) additionally calls the classifier's
  /// PredictProba on the already-scored record and feeds the distribution
  /// into OnlineConceptStats::ObserveCalibration (per-concept Brier
  /// score). Sampled because a full distribution costs another pass over
  /// the per-concept models; keyed to absolute positions so a resumed run
  /// samples the same records. Requires concept stats to be tracked.
  size_t calibration_sample_period = 0;

  // --- Checkpoint / resume (highorder/checkpoint.h drives these) ---

  /// Skip this many leading records: they were already scored before the
  /// checkpoint. The label-subsampling RNG still draws once per skipped
  /// record (when labeled_fraction < 1), so the resumed run reveals the
  /// same labels the uninterrupted run would have.
  uint64_t start_record = 0;
  /// Stop once this many records (absolute, including the skipped prefix)
  /// have been scored; 0 = run to the end of the dataset. The harness
  /// carry state at the stop lands in PrequentialResult so the caller can
  /// checkpoint it.
  uint64_t stop_after = 0;
  /// Errors / partial WindowError block carried over from the checkpoint.
  uint64_t carry_errors = 0;
  uint64_t carry_window_errors = 0;
  uint64_t carry_window_fill = 0;
  /// Invoke `on_checkpoint` after every `checkpoint_every`-th scored
  /// record (absolute positions; 0 disables). The callback runs after the
  /// record's label was revealed, so capturing the classifier state inside
  /// it snapshots a consistent predict+observe boundary.
  uint64_t checkpoint_every = 0;
  std::function<void(const PrequentialProgress&)> on_checkpoint;
  /// Continue accumulating into this (restored) per-concept accounting
  /// instead of starting fresh; implies track_concept_stats.
  std::shared_ptr<OnlineConceptStats> resume_concept_stats;

  // --- Live introspection (homctl evaluate --listen / serve) ---

  /// Invoke `on_progress` after every `progress_every`-th scored record
  /// (absolute positions; 0 disables) and once more when the run ends.
  /// Runs on the eval thread; keep it cheap — the serving loop uses it to
  /// refresh a ServingStatusBoard, not to do work.
  uint64_t progress_every = 0;
  std::function<void(const PrequentialProgress&)> on_progress;
  /// Checked (relaxed) once per record when set; a true load stops the run
  /// after the in-flight record, exactly like stop_after — the carries land
  /// in PrequentialResult so the caller can checkpoint. This is how
  /// `homctl serve` turns SIGTERM into a graceful drain.
  const std::atomic<bool>* stop_flag = nullptr;
  /// When set, every record is one request on this timer, which times 1
  /// in RequestTimer::kRequestSamplePeriod of them plus every record that
  /// checkpoints: parse → sanitize → predict → observe → checkpoint stage
  /// durations land in the `hom.serve.stage_seconds` histograms and the
  /// timer's slowest-K set (DESIGN.md §11). The sanitize stage is
  /// attributed inside the classifier's input-hardening path.
  obs::RequestTimer* request_timer = nullptr;
};

/// Outcome of a prequential run.
struct PrequentialResult {
  size_t num_records = 0;
  size_t num_errors = 0;
  /// Wall-clock seconds spent in Predict + ObserveLabeled (the paper's
  /// "test time": classification plus additional online training).
  double seconds = 0.0;
  /// Per-record 0/1 error indicator (only when record_trace is set).
  std::vector<uint8_t> errors;
  /// Per-concept accounting (only when track_concept_stats is set).
  /// Shared so the result struct stays copyable.
  std::shared_ptr<OnlineConceptStats> concept_stats;
  /// Partial WindowError block at the point the run stopped — the carry a
  /// checkpoint must persist when stop_after cut the stream short.
  uint64_t window_errors_carry = 0;
  uint64_t window_fill_carry = 0;

  double error_rate() const {
    return num_records == 0
               ? 0.0
               : static_cast<double>(num_errors) /
                     static_cast<double>(num_records);
  }
};

/// \brief Runs the Section III-A protocol over `test`: for each record,
/// predict it with the label hidden, score the prediction, then reveal the
/// labeled record to the classifier.
///
/// This realizes "the prediction of x_t makes use of labeled data
/// {y_1, ..., y_{t-1}}" — the label of the current record never influences
/// its own prediction.
PrequentialResult RunPrequential(StreamClassifier* classifier,
                                 const Dataset& test,
                                 PrequentialOptions options = {});

}  // namespace hom

#endif  // HOM_EVAL_PREQUENTIAL_H_
