#ifndef HOM_EVAL_SERVING_STATUS_H_
#define HOM_EVAL_SERVING_STATUS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/online_stats.h"
#include "obs/alerts.h"
#include "obs/event_journal.h"
#include "obs/json.h"
#include "obs/request_timer.h"
#include "obs/timeseries.h"

namespace hom {

/// \brief Shared status of a live serving run, read by the introspection
/// endpoints (/healthz, /statusz) while the prequential loop writes it.
///
/// The eval loop (or a classifier's ExportServingStatus) pushes progress in
/// at a coarse cadence — every progress_every records, not per record — and
/// HTTP handler threads read it out; one mutex around plain copies is all
/// the synchronization that needs. Updates also publish the headline
/// numbers as labeled gauges (`hom.serving.*`, `hom.concept.*{concept=i}`),
/// so /metrics and /statusz describe the same run from the same data.
class ServingStatusBoard {
 public:
  /// A progress push: stream position plus the drift filter's view and
  /// the model-health signals derived from it (DESIGN.md §12).
  struct Progress {
    uint64_t records = 0;        ///< records scored so far
    uint64_t errors = 0;         ///< of which wrong
    int64_t active_concept = -1; ///< argmax prediction weight, -1 = none
    std::vector<double> prior;     ///< P_t−(c), per concept
    std::vector<double> posterior; ///< P_t(c), per concept
    double posterior_entropy = 0.0;       ///< H(P_t) in nats
    double posterior_entropy_ratio = 0.0; ///< H(P_t) / ln(N), in [0, 1]
    double top_concept_margin = 0.0;      ///< posterior top1 − top2
    bool drift_suspected = false;  ///< hysteresis: suspected, unconfirmed
    uint64_t drift_dwell = 0;      ///< records in the current suspicion
  };

  ServingStatusBoard();

  /// Identity of the run, set once before serving starts.
  void SetStaticInfo(std::string model_path, std::string input_path,
                     size_t num_concepts);
  /// Journal whose most recent events /statusz lists. The journal must
  /// outlive the board (both are owned by the serving command).
  void SetJournal(const obs::EventJournal* journal);
  /// Request timer whose slowest-K set /statusz surfaces as
  /// "slow_requests" (stage breakdowns included). Must outlive the board.
  void SetRequestTimer(const obs::RequestTimer* timer);
  /// Lifecycle marker: "loading" -> "serving" -> "draining".
  void SetState(std::string state);
  /// Windowed-error SLO the alert pack compares against; published as the
  /// `hom.serving.error_slo` gauge and echoed on /statusz.
  void SetErrorSlo(double slo);
  /// Monitoring subsystems whose stats /statusz embeds (an `alerts`
  /// summary block and the time-series ring stats). Both must outlive the
  /// board; either may be nullptr.
  void SetMonitors(const obs::TimeSeriesStore* timeseries,
                   const obs::AlertEngine* alerts);

  /// Pushes the current stream position + filter state; also exports the
  /// `hom.serving.*` gauges (posterior per concept as
  /// `hom.serving.posterior{concept=...}`), including the derived
  /// model-health gauges: windowed error rate over the last
  /// `kErrorWindowPushes` pushes, posterior entropy/margin, drift
  /// suspicion, and checkpoint age.
  void UpdateProgress(const Progress& progress);

  /// Error rate between the oldest and newest of the recent progress
  /// pushes (the `hom.serving.windowed_error_rate` value); cumulative
  /// error rate until a window has accumulated.
  double WindowedErrorRate() const;
  /// Mirrors per-concept online accounting into the board and the
  /// `hom.concept.*{concept=...}` gauges. The board keeps a copy of
  /// `stats`; /statusz renders it as JSON only when scraped.
  void UpdateConceptStats(const OnlineConceptStats& stats);
  /// Marks a completed checkpoint write at stream position `record`.
  void RecordCheckpoint(uint64_t record);

  /// Seconds since RecordCheckpoint was last called; negative (-1) if
  /// never — /healthz reports it so an operator can alert on stalls.
  double LastCheckpointAgeSeconds() const;

  /// {"status": "ok", "state": ..., "uptime_seconds": ...,
  ///  "records": ..., "last_checkpoint_age_seconds": ... | null}
  obs::JsonValue HealthJson() const;

  /// Full introspection payload: run identity, progress, drift-filter
  /// prior/posterior, per-concept stats, and the journal's most recent
  /// `last_events` events.
  obs::JsonValue StatusJson(size_t last_events = 32) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Progress pushes spanned by the windowed error rate: with the serving
  /// default of one push per 500 records this is a ~2500-record window,
  /// matching the recent-error ring of OnlineConceptStats.
  static constexpr size_t kErrorWindowPushes = 5;

  /// WindowedErrorRate with mu_ already held.
  double WindowedErrorRateLocked() const;

  /// Lazily-resolved `{concept=i}` gauge handles for one family, indexed
  /// by concept id. WithLabels() takes the family mutex and builds a
  /// canonical label string on every call — far too slow for every
  /// progress push — while a resolved handle is a lock-free atomic and
  /// stays valid for the process lifetime. Only the single progress
  /// writer (the eval loop) touches the vector.
  struct ConceptGauges {
    const char* family;
    std::vector<obs::Gauge*> handles;
    obs::Gauge* For(int64_t concept_id);
  };

  mutable std::mutex mu_;
  Clock::time_point start_;
  std::string model_path_;
  std::string input_path_;
  size_t num_concepts_ = 0;
  std::string state_ = "loading";
  Progress progress_;
  /// Copy-assigned on every push, which reuses the map's nodes and the
  /// vectors' storage.
  std::optional<OnlineConceptStats> concept_stats_;
  bool has_checkpoint_ = false;
  uint64_t checkpoint_record_ = 0;
  Clock::time_point checkpoint_at_;
  const obs::EventJournal* journal_ = nullptr;
  const obs::RequestTimer* request_timer_ = nullptr;
  const obs::TimeSeriesStore* timeseries_ = nullptr;
  const obs::AlertEngine* alerts_ = nullptr;
  bool has_error_slo_ = false;
  double error_slo_ = 0.0;
  /// Ring of the most recent (records, errors) pushes backing the
  /// windowed error rate; one entry older than the window is kept as the
  /// subtraction base.
  std::deque<std::pair<uint64_t, uint64_t>> recent_progress_;
  ConceptGauges posterior_gauges_{"hom.serving.posterior", {}};
  ConceptGauges prior_gauges_{"hom.serving.prior", {}};
  ConceptGauges concept_records_gauges_{"hom.concept.records", {}};
  ConceptGauges concept_activations_gauges_{"hom.concept.activations", {}};
  ConceptGauges concept_error_rate_gauges_{"hom.concept.error_rate", {}};
  ConceptGauges concept_windowed_error_gauges_{
      "hom.concept.windowed_error_rate", {}};
  ConceptGauges concept_brier_gauges_{"hom.concept.brier_score", {}};
};

}  // namespace hom

#endif  // HOM_EVAL_SERVING_STATUS_H_
