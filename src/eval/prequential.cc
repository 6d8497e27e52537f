#include "eval/prequential.h"

#include "common/check.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hom {

PrequentialResult RunPrequential(StreamClassifier* classifier,
                                 const Dataset& test,
                                 PrequentialOptions options) {
  HOM_CHECK(classifier != nullptr);
  HOM_CHECK_GT(options.labeled_fraction, 0.0);
  HOM_CHECK_LE(options.labeled_fraction, 1.0);

  PrequentialResult result;
  if (options.record_trace) result.errors.reserve(test.size());
  if (options.resume_concept_stats != nullptr) {
    result.concept_stats = options.resume_concept_stats;
  } else if (options.track_concept_stats) {
    result.concept_stats = std::make_shared<OnlineConceptStats>(
        classifier->num_classes(), options.journal_error_window);
  }
  Rng label_rng(options.label_seed);
  // Block-error accounting for the journal's WindowError events; only paid
  // for when a journal is installed.
  obs::EventJournal* journal = obs::EventJournal::Active();
  // Resume support: record/error counts are absolute stream positions and
  // the in-flight WindowError block carries over, so a checkpointed run
  // emits the same journal blocks as an uninterrupted one.
  result.num_records = options.start_record;
  result.num_errors = options.carry_errors;
  size_t window_errors = options.carry_window_errors;
  size_t window_fill = options.carry_window_fill;
  uint64_t skip = options.start_record;
  bool stopped_early = false;
  // Scratch for the sampled calibration distribution, reused across the
  // run so sampling stays allocation-free (PredictProbaInto).
  std::vector<double> calibration_proba;
  // The label-hidden copy of the current record; declared once so each
  // copy reuses the previous record's buffer instead of allocating.
  Record unlabeled;

  Stopwatch timer;
  obs::ScopedSpan span("prequential_eval");
  for (const Record& r : test.records()) {
    HOM_DCHECK(r.is_labeled());
    if (skip > 0) {
      // Already scored before the checkpoint; burn the label draw the
      // uninterrupted run would have spent on it to keep the RNG aligned.
      --skip;
      if (options.labeled_fraction < 1.0) {
        label_rng.NextBernoulli(options.labeled_fraction);
      }
      continue;
    }
    if (options.stop_after > 0 && result.num_records >= options.stop_after) {
      stopped_early = true;
      break;
    }
    if (options.stop_flag != nullptr &&
        options.stop_flag->load(std::memory_order_relaxed)) {
      stopped_early = true;
      break;
    }
    // One record = one request (a no-op without a request_timer). The timer
    // samples which requests it times; a checkpointing record is always
    // timed so the checkpoint stage keeps one sample per checkpoint.
    const bool checkpoints =
        options.checkpoint_every > 0 && options.on_checkpoint &&
        (result.num_records + 1) % options.checkpoint_every == 0;
    obs::ScopedRequestTimer request_timing(
        options.request_timer, static_cast<int64_t>(result.num_records + 1),
        /*always_time=*/checkpoints);
    // Predict with the label hidden: x_t.
    {
      obs::ScopedRequestStage stage(obs::RequestStage::kParse);
      unlabeled = r;
      unlabeled.label = kUnlabeled;
    }
    Label predicted;
    {
      obs::ScopedRequestStage stage(obs::RequestStage::kPredict);
      predicted = classifier->Predict(unlabeled);
    }
    bool wrong = predicted != r.label;
    ++result.num_records;
    if (wrong) ++result.num_errors;
    if (options.record_trace) result.errors.push_back(wrong ? 1 : 0);
    obs::ScopedRequestStage observe_stage(obs::RequestStage::kObserve);
    if (result.concept_stats != nullptr) {
      result.concept_stats->Observe(classifier->ActiveConcept(), r.label,
                                    predicted);
      if (options.calibration_sample_period > 0 &&
          result.num_records % options.calibration_sample_period == 0) {
        // The label is still hidden here, so the sampled distribution is
        // the one the model would have served for this record.
        classifier->PredictProbaInto(unlabeled, &calibration_proba);
        result.concept_stats->ObserveCalibration(classifier->ActiveConcept(),
                                                 r.label, calibration_proba);
      }
    }
    if (journal != nullptr && options.journal_error_window > 0) {
      if (wrong) ++window_errors;
      if (++window_fill == options.journal_error_window) {
        journal->Emit(obs::EventType::kWindowError, "prequential",
                      static_cast<int64_t>(result.num_records),
                      classifier->ActiveConcept(), -1,
                      static_cast<double>(window_errors) /
                          static_cast<double>(window_fill));
        window_errors = 0;
        window_fill = 0;
      }
    }
    // Reveal y_t (possibly subsampled to model labeling overhead).
    if (options.labeled_fraction >= 1.0 ||
        label_rng.NextBernoulli(options.labeled_fraction)) {
      classifier->ObserveLabeled(r);
    }
    if (checkpoints) {
      obs::ScopedRequestStage stage(obs::RequestStage::kCheckpoint);
      PrequentialProgress progress;
      progress.record = result.num_records;
      progress.num_errors = result.num_errors;
      progress.window_errors = window_errors;
      progress.window_fill = window_fill;
      options.on_checkpoint(progress);
    }
    if (options.progress_every > 0 && options.on_progress &&
        result.num_records % options.progress_every == 0) {
      PrequentialProgress progress;
      progress.record = result.num_records;
      progress.num_errors = result.num_errors;
      progress.window_errors = window_errors;
      progress.window_fill = window_fill;
      options.on_progress(progress);
    }
  }
  if (options.on_progress) {
    // Final push so the board reflects the end of the run even when the
    // record count is not a multiple of progress_every.
    PrequentialProgress progress;
    progress.record = result.num_records;
    progress.num_errors = result.num_errors;
    progress.window_errors = window_errors;
    progress.window_fill = window_fill;
    options.on_progress(progress);
  }
  result.window_errors_carry = window_errors;
  result.window_fill_carry = window_fill;
  if (!stopped_early && journal != nullptr && window_fill > 0) {
    // Flush the ragged tail block so short streams still journal an error.
    journal->Emit(obs::EventType::kWindowError, "prequential",
                  static_cast<int64_t>(result.num_records),
                  classifier->ActiveConcept(), -1,
                  static_cast<double>(window_errors) /
                      static_cast<double>(window_fill));
  }
  result.seconds = timer.ElapsedSeconds();
  HOM_COUNTER_ADD("hom.eval.records", result.num_records);
  if (result.seconds > 0.0) {
    HOM_GAUGE_SET("hom.eval.records_per_sec",
                  static_cast<double>(result.num_records) / result.seconds);
  }
  return result;
}

}  // namespace hom
