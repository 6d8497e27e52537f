#include "eval/serving_status.h"

#include <string>

#include "obs/build_info.h"
#include "obs/metrics.h"

namespace hom {

obs::Gauge* ServingStatusBoard::ConceptGauges::For(int64_t concept_id) {
  if (concept_id < 0 || concept_id >= 4096) {
    // The classifier reports -1 while no concept is active yet; anything
    // outside the dense-cache range takes the family's locked lookup,
    // which is still correct, just not handle-cached.
    return obs::MetricsRegistry::Global()
        .GetGaugeFamily(family)
        ->WithLabels({{"concept", std::to_string(concept_id)}});
  }
  size_t idx = static_cast<size_t>(concept_id);
  if (idx >= handles.size()) handles.resize(idx + 1, nullptr);
  if (handles[idx] == nullptr) {
    handles[idx] = obs::MetricsRegistry::Global()
                       .GetGaugeFamily(family)
                       ->WithLabels({{"concept", std::to_string(concept_id)}});
  }
  return handles[idx];
}

ServingStatusBoard::ServingStatusBoard() : start_(Clock::now()) {}

void ServingStatusBoard::SetStaticInfo(std::string model_path,
                                       std::string input_path,
                                       size_t num_concepts) {
  std::lock_guard<std::mutex> lock(mu_);
  model_path_ = std::move(model_path);
  input_path_ = std::move(input_path);
  num_concepts_ = num_concepts;
}

void ServingStatusBoard::SetJournal(const obs::EventJournal* journal) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_ = journal;
}

void ServingStatusBoard::SetRequestTimer(const obs::RequestTimer* timer) {
  std::lock_guard<std::mutex> lock(mu_);
  request_timer_ = timer;
}

void ServingStatusBoard::SetState(std::string state) {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = std::move(state);
}

void ServingStatusBoard::SetErrorSlo(double slo) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    has_error_slo_ = true;
    error_slo_ = slo;
  }
  HOM_GAUGE_SET("hom.serving.error_slo", slo);
}

void ServingStatusBoard::SetMonitors(const obs::TimeSeriesStore* timeseries,
                                     const obs::AlertEngine* alerts) {
  std::lock_guard<std::mutex> lock(mu_);
  timeseries_ = timeseries;
  alerts_ = alerts;
}

double ServingStatusBoard::WindowedErrorRateLocked() const {
  if (recent_progress_.empty()) return 0.0;
  const auto& [rec_now, err_now] = recent_progress_.back();
  // The front entry is the subtraction base (one push older than the
  // window); with a single push the window degenerates to the cumulative
  // rate, which is the right cold-start answer.
  const auto& [rec_base, err_base] =
      recent_progress_.size() == 1 ? std::pair<uint64_t, uint64_t>{0, 0}
                                   : recent_progress_.front();
  const uint64_t records = rec_now - rec_base;
  const uint64_t errors = err_now - err_base;
  return records == 0 ? 0.0
                      : static_cast<double>(errors) /
                            static_cast<double>(records);
}

double ServingStatusBoard::WindowedErrorRate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WindowedErrorRateLocked();
}

void ServingStatusBoard::UpdateProgress(const Progress& progress) {
  double windowed_error_rate;
  double checkpoint_age;
  {
    std::lock_guard<std::mutex> lock(mu_);
    progress_ = progress;
    // Drop stale history (a fresh run pushing from record 0 again) so the
    // windowed rate never sees a negative delta.
    if (!recent_progress_.empty() &&
        recent_progress_.back().first > progress.records) {
      recent_progress_.clear();
    }
    recent_progress_.emplace_back(progress.records, progress.errors);
    while (recent_progress_.size() > kErrorWindowPushes + 1) {
      recent_progress_.pop_front();
    }
    windowed_error_rate = WindowedErrorRateLocked();
    checkpoint_age =
        has_checkpoint_
            ? std::chrono::duration<double>(Clock::now() - checkpoint_at_)
                  .count()
            : -1.0;
  }
  HOM_GAUGE_SET("hom.serving.windowed_error_rate", windowed_error_rate);
  HOM_GAUGE_SET("hom.serving.checkpoint_age_seconds", checkpoint_age);
  HOM_GAUGE_SET("hom.serving.posterior_entropy", progress.posterior_entropy);
  HOM_GAUGE_SET("hom.serving.posterior_entropy_ratio",
                progress.posterior_entropy_ratio);
  HOM_GAUGE_SET("hom.serving.top_concept_margin",
                progress.top_concept_margin);
  HOM_GAUGE_SET("hom.serving.drift_suspected",
                progress.drift_suspected ? 1.0 : 0.0);
  HOM_GAUGE_SET("hom.serving.drift_dwell", progress.drift_dwell);
  HOM_GAUGE_SET("hom.serving.records", progress.records);
  HOM_GAUGE_SET("hom.serving.errors", progress.errors);
  HOM_GAUGE_SET("hom.serving.error_rate",
                progress.records == 0
                    ? 0.0
                    : static_cast<double>(progress.errors) /
                          static_cast<double>(progress.records));
  HOM_GAUGE_SET("hom.serving.active_concept", progress.active_concept);
  for (size_t c = 0; c < progress.posterior.size(); ++c) {
    posterior_gauges_.For(static_cast<int64_t>(c))->Set(progress.posterior[c]);
  }
  for (size_t c = 0; c < progress.prior.size(); ++c) {
    prior_gauges_.For(static_cast<int64_t>(c))->Set(progress.prior[c]);
  }
}

void ServingStatusBoard::UpdateConceptStats(const OnlineConceptStats& stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    concept_stats_ = stats;
  }
  for (const auto& [concept_id, entry] : stats.concepts()) {
    concept_records_gauges_.For(concept_id)
        ->Set(static_cast<double>(entry.records));
    concept_activations_gauges_.For(concept_id)
        ->Set(static_cast<double>(entry.activations));
    concept_error_rate_gauges_.For(concept_id)->Set(entry.error_rate());
    concept_windowed_error_gauges_.For(concept_id)
        ->Set(entry.windowed_error_rate());
    if (entry.brier_count > 0) {
      concept_brier_gauges_.For(concept_id)->Set(entry.brier_score());
    }
  }
}

void ServingStatusBoard::RecordCheckpoint(uint64_t record) {
  std::lock_guard<std::mutex> lock(mu_);
  has_checkpoint_ = true;
  checkpoint_record_ = record;
  checkpoint_at_ = Clock::now();
}

double ServingStatusBoard::LastCheckpointAgeSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_checkpoint_) return -1.0;
  return std::chrono::duration<double>(Clock::now() - checkpoint_at_).count();
}

obs::JsonValue ServingStatusBoard::HealthJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("status", obs::JsonValue("ok"));
  out.Set("state", obs::JsonValue(state_));
  out.Set("uptime_seconds",
          obs::JsonValue(
              std::chrono::duration<double>(Clock::now() - start_).count()));
  out.Set("records", obs::JsonValue(progress_.records));
  if (has_checkpoint_) {
    out.Set("last_checkpoint_record", obs::JsonValue(checkpoint_record_));
    out.Set("last_checkpoint_age_seconds",
            obs::JsonValue(std::chrono::duration<double>(Clock::now() -
                                                         checkpoint_at_)
                               .count()));
  } else {
    out.Set("last_checkpoint_age_seconds", obs::JsonValue());
  }
  return out;
}

obs::JsonValue ServingStatusBoard::StatusJson(size_t last_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("state", obs::JsonValue(state_));
  out.Set("model", obs::JsonValue(model_path_));
  out.Set("input", obs::JsonValue(input_path_));
  out.Set("num_concepts",
          obs::JsonValue(static_cast<uint64_t>(num_concepts_)));
  out.Set("uptime_seconds",
          obs::JsonValue(
              std::chrono::duration<double>(Clock::now() - start_).count()));

  obs::JsonValue progress = obs::JsonValue::Object();
  progress.Set("records", obs::JsonValue(progress_.records));
  progress.Set("errors", obs::JsonValue(progress_.errors));
  progress.Set("error_rate",
               obs::JsonValue(progress_.records == 0
                                  ? 0.0
                                  : static_cast<double>(progress_.errors) /
                                        static_cast<double>(
                                            progress_.records)));
  progress.Set("active_concept", obs::JsonValue(progress_.active_concept));
  obs::JsonValue prior = obs::JsonValue::Array();
  for (double p : progress_.prior) prior.Append(obs::JsonValue(p));
  progress.Set("prior", std::move(prior));
  obs::JsonValue posterior = obs::JsonValue::Array();
  for (double p : progress_.posterior) posterior.Append(obs::JsonValue(p));
  progress.Set("posterior", std::move(posterior));
  progress.Set("windowed_error_rate",
               obs::JsonValue(WindowedErrorRateLocked()));
  progress.Set("posterior_entropy",
               obs::JsonValue(progress_.posterior_entropy));
  progress.Set("posterior_entropy_ratio",
               obs::JsonValue(progress_.posterior_entropy_ratio));
  progress.Set("top_concept_margin",
               obs::JsonValue(progress_.top_concept_margin));
  progress.Set("drift_suspected", obs::JsonValue(progress_.drift_suspected));
  progress.Set("drift_dwell", obs::JsonValue(progress_.drift_dwell));
  out.Set("progress", std::move(progress));

  if (has_error_slo_) {
    out.Set("error_slo", obs::JsonValue(error_slo_));
  }

  if (has_checkpoint_) {
    obs::JsonValue checkpoint = obs::JsonValue::Object();
    checkpoint.Set("record", obs::JsonValue(checkpoint_record_));
    checkpoint.Set(
        "age_seconds",
        obs::JsonValue(
            std::chrono::duration<double>(Clock::now() - checkpoint_at_)
                .count()));
    out.Set("checkpoint", std::move(checkpoint));
  }

  if (concept_stats_.has_value()) {
    out.Set("concept_stats", concept_stats_->ToJson());
  }

  out.Set("build", obs::BuildInfoJson());

  if (alerts_ != nullptr) {
    out.Set("alerts", alerts_->SummaryJson());
  }
  if (timeseries_ != nullptr) {
    out.Set("timeseries", timeseries_->StatsJson());
  }

  if (request_timer_ != nullptr) {
    obs::JsonValue slow = obs::JsonValue::Object();
    slow.Set("requests", obs::JsonValue(request_timer_->requests()));
    slow.Set("slowest", request_timer_->SlowestJson());
    out.Set("slow_requests", std::move(slow));
  }

  if (journal_ != nullptr) {
    std::vector<obs::Event> events = journal_->Snapshot();
    size_t begin =
        events.size() > last_events ? events.size() - last_events : 0;
    obs::JsonValue recent = obs::JsonValue::Array();
    for (size_t i = begin; i < events.size(); ++i) {
      // ToJsonl is the journal's canonical event serialization; reparse it
      // so /statusz nests the same objects the JSONL sink writes.
      auto parsed =
          obs::JsonValue::Parse(obs::EventJournal::ToJsonl(events[i]));
      if (parsed.ok()) recent.Append(std::move(parsed).ValueOrDie());
    }
    out.Set("recent_events", std::move(recent));
  }
  return out;
}

}  // namespace hom
