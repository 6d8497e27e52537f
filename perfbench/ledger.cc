// perfbench_ledger — the benchmark's in-process side.
//
//   perfbench_ledger gen --seed S --history N --online M
//                        --history-out h.csv --online-out o.csv
//   perfbench_ledger ref
//   perfbench_ledger build    --in h.csv --out m.hom --trace-out t.json
//   perfbench_ledger evaluate --model m.hom --in o.csv --labeled 0.1
//                             --trace-out t.json
//   perfbench_ledger serve    --model m.hom --in o.csv --passes P
//                             --trace-out t.json
//
// `gen` writes the seeded Intrusion inputs: one generator produces the
// history and then its continuation. `ref` times a fixed CPU kernel (the
// host-drift probe). `build`, `evaluate` and `serve` replicate the homctl
// command of the same name: the same library calls, in the same order,
// with the same options, each call into a layer wrapped in a span or a
// per-call aggregate (ledger_trace.h, timed_classifiers.h). The trace and
// the outputs the command's checks compare against go to --trace-out.
//
// Deliberately not replicated: homctl serve's introspection HTTP server
// and signal handlers. No request reaches the server during the benchmark
// and the loop never reads it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classifiers/decision_tree.h"
#include "common/rng.h"
#include "data/io.h"
#include "data/sanitize.h"
#include "eval/prequential.h"
#include "eval/serving_status.h"
#include "highorder/builder.h"
#include "highorder/serialization.h"
#include "ledger_trace.h"
#include "obs/alerts.h"
#include "obs/build_info.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/request_timer.h"
#include "obs/timeseries.h"
#include "streams/intrusion.h"
#include "timed_classifiers.h"

namespace {

using namespace hom;
using perfbench::LedgerTrace;
using Scope = perfbench::LedgerTrace::Scope;

using Options = std::map<std::string, std::string>;

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_ledger: %s\n", message.c_str());
  return 1;
}

/// Parses the `--key value` pairs after the subcommand; false when the
/// list is malformed.
bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 2; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    (*options)[key.substr(2)] = argv[i + 1];
  }
  return true;
}

std::string Get(const Options& options, const std::string& key) {
  auto it = options.find(key);
  return it == options.end() ? "" : it->second;
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// ReadCsv inside a data.read_csv span, recording what the data layer
/// reports. `options` null selects the strict overload `homctl build` uses.
Result<Dataset> TracedReadCsv(LedgerTrace* trace, const SchemaPtr& schema,
                              const std::string& path,
                              const CsvReadOptions* options) {
  double rss_before = MaxRssMb();
  CsvReadReport report;
  Result<Dataset> data = Status::Internal("unread");
  {
    Scope span(trace, "data.read_csv");
    data = options == nullptr ? ReadCsv(schema, path)
                              : ReadCsv(schema, path, *options, &report);
  }
  if (!data.ok()) return data;
  if (options == nullptr) report.rows_read = data->size();
  trace->SetValue("rows_read", static_cast<double>(report.rows_read));
  trace->SetValue("rows_skipped", static_cast<double>(report.rows_skipped));
  trace->SetValue("read_csv_rss_mb", MaxRssMb() - rss_before);
  return data;
}

/// What homctl's PublishModelBuildInfo does, from the same library calls.
void PublishModelBuildInfo(const HighOrderClassifier& model) {
  std::string fingerprint = "none";
  if (auto fp = SchemaFingerprint(*model.schema()); fp.ok()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", *fp);
    fingerprint = buf;
  }
  obs::PublishBuildInfo(fingerprint);
}

/// Loads the served model the way homctl evaluate and serve do.
Result<std::unique_ptr<HighOrderClassifier>> TracedLoad(
    LedgerTrace* trace, const std::string& path, InputPolicy policy) {
  Result<std::unique_ptr<HighOrderClassifier>> model =
      Status::Internal("unloaded");
  {
    Scope span(trace, "highorder.load");
    model = LoadHighOrderModelFromFile(path);
  }
  if (!model.ok()) return model;
  {
    Scope span(trace, "obs.build_info");
    PublishModelBuildInfo(**model);
  }
  (*model)->set_input_policy(policy);
  trace->SetValue("concepts", static_cast<double>((*model)->num_concepts()));
  trace->SetValue("model_bytes", FileBytes(path));
  return model;
}

void AddStreamCalls(LedgerTrace* trace, const perfbench::StreamCalls& calls,
                    const HighOrderClassifier& model, size_t base_evals_before,
                    size_t predictions_before) {
  trace->AddLatency("highorder.predict", "eval.loop", calls.predict);
  trace->AddLatency("highorder.observe", "eval.loop", calls.observe);
  trace->AddLatency("highorder.proba", "eval.loop", calls.proba);
  trace->SetValue("base_evaluations", static_cast<double>(
                                          model.base_evaluations() -
                                          base_evals_before));
  trace->SetValue("predictions",
                  static_cast<double>(model.predictions() - predictions_before));
}

int CmdGen(const Options& options) {
  uint64_t seed = std::strtoull(Get(options, "seed").c_str(), nullptr, 10);
  size_t history = std::strtoull(Get(options, "history").c_str(), nullptr, 10);
  size_t online = std::strtoull(Get(options, "online").c_str(), nullptr, 10);
  std::string history_out = Get(options, "history-out");
  std::string online_out = Get(options, "online-out");
  if (history == 0 || history_out.empty() || online_out.empty()) {
    return Fail("gen needs --history N --history-out and --online-out");
  }
  IntrusionGenerator generator(seed);
  if (Status st = WriteCsv(generator.Generate(history), history_out);
      !st.ok()) {
    return Fail(st.ToString());
  }
  if (Status st = WriteCsv(generator.Generate(online), online_out);
      !st.ok()) {
    return Fail(st.ToString());
  }
  return 0;
}

/// Host-drift probe: a fixed sort-and-log2 kernel, the shape of the
/// build's split search, independent of the library. Prints seconds.
int CmdRef() {
  std::vector<double> base(1u << 18);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (double& v : base) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    v = static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
  }
  double sink = 0.0;
  int64_t start = perfbench::NowNs();
  for (int round = 0; round < 4; ++round) {
    std::vector<double> values = base;
    std::sort(values.begin(), values.end());
    for (size_t i = 0; i < values.size(); i += 16) {
      sink += values[i] * std::log2(values[i] + 1.0);
    }
    base[static_cast<size_t>(round)] += sink * 1e-18;
  }
  double seconds = static_cast<double>(perfbench::NowNs() - start) * 1e-9;
  std::printf("%.9f %.3f\n", seconds, sink);
  return 0;
}

/// Replica of `homctl build --stream intrusion --threads 2`.
int CmdBuild(const Options& options) {
  std::string in = Get(options, "in");
  std::string out = Get(options, "out");
  std::string trace_out = Get(options, "trace-out");
  if (in.empty() || out.empty() || trace_out.empty()) {
    return Fail("build needs --in, --out and --trace-out");
  }
  LedgerTrace trace;
  perfbench::ClassifierCalls calls(std::this_thread::get_id());
  size_t concepts = 0;
  {
    Scope root(&trace, "replica");
    // homctl takes the schema from a stream generator seeded with 1.
    SchemaPtr schema = IntrusionGenerator(1).schema();
    auto history = TracedReadCsv(&trace, schema, in, nullptr);
    if (!history.ok()) return Fail(history.status().ToString());

    HighOrderBuildConfig config;
    config.clustering.num_threads = 2;
    HighOrderModelBuilder builder(
        perfbench::TimedFactory(DecisionTree::Factory(), &calls), config);
    Rng rng(7);
    HighOrderBuildReport report;
    Result<std::unique_ptr<HighOrderClassifier>> model =
        Status::Internal("unbuilt");
    {
      Scope span(&trace, "highorder.build");
      model = builder.Build(*history, &rng, &report);
    }
    if (!model.ok()) return Fail(model.status().ToString());
    {
      Scope span(&trace, "highorder.save");
      if (Status st = SaveHighOrderModelToFile(out, **model); !st.ok()) {
        return Fail(st.ToString());
      }
    }
    concepts = (*model)->num_concepts();
  }
  trace.AddCalls("classifiers.train", "highorder.build", false,
                 calls.train_caller);
  trace.AddCalls("classifiers.train", "highorder.build", true,
                 calls.train_pool);
  trace.AddCalls("classifiers.predict", "highorder.build", false,
                 calls.predict_caller);
  trace.AddCalls("classifiers.predict", "highorder.build", true,
                 calls.predict_pool);
  trace.SetValue("concepts", static_cast<double>(concepts));
  trace.SetValue("model_bytes", FileBytes(out));
  if (Status st = trace.WriteJson(trace_out); !st.ok()) {
    return Fail(st.ToString());
  }
  return 0;
}

/// Replica of `homctl evaluate --labeled F` (no --listen, so unmonitored).
int CmdEvaluate(const Options& options) {
  std::string model_path = Get(options, "model");
  std::string in = Get(options, "in");
  std::string trace_out = Get(options, "trace-out");
  double labeled = std::atof(Get(options, "labeled").c_str());
  if (model_path.empty() || in.empty() || trace_out.empty()) {
    return Fail("evaluate needs --model, --in and --trace-out");
  }
  LedgerTrace trace;
  perfbench::StreamCalls calls;
  PrequentialResult result;
  std::unique_ptr<HighOrderClassifier> served;
  size_t base_evals_before = 0;
  size_t predictions_before = 0;
  {
    Scope root(&trace, "replica");
    auto policy = InputPolicyFromName("skip");
    if (!policy.ok()) return Fail(policy.status().ToString());
    auto model = TracedLoad(&trace, model_path, *policy);
    if (!model.ok()) return Fail(model.status().ToString());
    served = std::move(*model);

    CsvReadOptions csv_options;
    csv_options.policy = *policy;
    auto test = TracedReadCsv(&trace, served->schema(), in, &csv_options);
    if (!test.ok()) return Fail(test.status().ToString());

    obs::EventJournal journal;
    obs::ScopedJournal scoped(&journal);
    PrequentialOptions prequential;
    prequential.labeled_fraction = labeled > 0 ? labeled : 1.0;
    prequential.track_concept_stats = true;
    obs::RequestTimer request_timer;
    prequential.request_timer = &request_timer;
    prequential.resume_concept_stats = std::make_shared<OnlineConceptStats>(
        served->num_classes(), prequential.journal_error_window);

    perfbench::TimedStreamClassifier timed(served.get(), &calls);
    base_evals_before = served->base_evaluations();
    predictions_before = served->predictions();
    {
      Scope span(&trace, "eval.loop");
      result = RunPrequential(&timed, *test, prequential);
    }
  }
  AddStreamCalls(&trace, calls, *served, base_evals_before,
                 predictions_before);
  trace.SetValue("records", static_cast<double>(result.num_records));
  trace.SetValue("errors", static_cast<double>(result.num_errors));
  if (Status st = trace.WriteJson(trace_out); !st.ok()) {
    return Fail(st.ToString());
  }
  return 0;
}

/// Replica of `homctl serve --passes P` without the HTTP server: default
/// alert pack at the default SLO, monitoring ticked from on_progress every
/// 500 records, calibration sampled every 512.
int CmdServe(const Options& options) {
  std::string model_path = Get(options, "model");
  std::string in = Get(options, "in");
  std::string trace_out = Get(options, "trace-out");
  uint64_t passes = std::strtoull(Get(options, "passes").c_str(), nullptr, 10);
  if (model_path.empty() || in.empty() || trace_out.empty() || passes == 0) {
    return Fail("serve needs --model, --in, --passes and --trace-out");
  }
  LedgerTrace trace;
  perfbench::StreamCalls calls;
  perfbench::LatencyStats monitor;
  std::unique_ptr<HighOrderClassifier> served;
  std::unique_ptr<obs::AlertEngine> alerts;
  uint64_t total_records = 0;
  uint64_t total_errors = 0;
  size_t base_evals_before = 0;
  size_t predictions_before = 0;
  {
    Scope root(&trace, "replica");
    auto policy = InputPolicyFromName("skip");
    if (!policy.ok()) return Fail(policy.status().ToString());
    auto model = TracedLoad(&trace, model_path, *policy);
    if (!model.ok()) return Fail(model.status().ToString());
    served = std::move(*model);

    CsvReadOptions csv_options;
    csv_options.policy = *policy;
    auto online = TracedReadCsv(&trace, served->schema(), in, &csv_options);
    if (!online.ok()) return Fail(online.status().ToString());
    if (online->size() == 0) return Fail(in + " has no records to serve");

    obs::EventJournal journal;
    obs::ScopedJournal scoped(&journal);
    std::unique_ptr<obs::TimeSeriesStore> timeseries;
    ServingStatusBoard board;
    obs::RequestTimer request_timer;
    const double error_slo = 0.30;
    {
      Scope span(&trace, "obs.monitor_setup");
      obs::TimeSeriesOptions ts_options;
      ts_options.retention_ticks = 360;
      timeseries = std::make_unique<obs::TimeSeriesStore>(ts_options);
      auto made = obs::AlertEngine::Make(obs::DefaultAlertRules(error_slo));
      if (!made.ok()) return Fail(made.status().ToString());
      alerts = std::move(*made);
      board.SetStaticInfo(model_path, in, served->num_concepts());
      board.SetJournal(&journal);
      board.SetRequestTimer(&request_timer);
      board.SetErrorSlo(error_slo);
      board.SetMonitors(timeseries.get(), alerts.get());
    }
    std::atomic<bool> pause{false};
    auto concept_stats = std::make_shared<OnlineConceptStats>(
        served->num_classes(), /*window=*/500);
    perfbench::TimedStreamClassifier timed(served.get(), &calls);
    base_evals_before = served->base_evaluations();
    predictions_before = served->predictions();
    board.SetState("serving");
    for (uint64_t pass = 0; pass < passes; ++pass) {
      uint64_t base_records = total_records;
      uint64_t base_errors = total_errors;
      auto publish = [&](const PrequentialProgress& progress) {
        int64_t start = perfbench::NowNs();
        uint64_t record = base_records + progress.record;
        ServingStatusBoard::Progress sp;
        sp.records = record;
        sp.errors = base_errors + progress.num_errors;
        served->ExportServingStatus(&sp);
        board.UpdateProgress(sp);
        board.UpdateConceptStats(*concept_stats);
        timeseries->TickFromRegistry(obs::MetricsRegistry::Global(),
                                     static_cast<int64_t>(record));
        alerts->EvaluateTick(*timeseries, static_cast<int64_t>(record));
        monitor.Record(perfbench::NowNs() - start);
      };
      PrequentialOptions prequential;
      prequential.track_concept_stats = true;
      prequential.resume_concept_stats = concept_stats;
      prequential.calibration_sample_period = 512;
      prequential.progress_every = 500;
      prequential.on_progress = publish;
      prequential.stop_flag = &pause;
      prequential.request_timer = &request_timer;
      PrequentialResult result;
      {
        Scope span(&trace, "eval.loop");
        result = RunPrequential(&timed, *online, prequential);
      }
      total_records = base_records + result.num_records;
      total_errors = base_errors + result.num_errors;
    }
    board.SetState("draining");
  }
  AddStreamCalls(&trace, calls, *served, base_evals_before,
                 predictions_before);
  trace.AddLatency("obs.monitor_tick", "eval.loop", monitor);
  trace.SetValue("records", static_cast<double>(total_records));
  trace.SetValue("errors", static_cast<double>(total_errors));
  trace.SetValue("alert_firing", static_cast<double>(alerts->firing()));
  trace.SetValue("alert_transitions",
                 static_cast<double>(alerts->transitions()));
  trace.SetValue("alert_evaluations",
                 static_cast<double>(alerts->evaluations()));
  if (Status st = trace.WriteJson(trace_out); !st.ok()) {
    return Fail(st.ToString());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: perfbench_ledger gen|ref|build|evaluate|serve ...");
  }
  std::string command = argv[1];
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    return Fail("options must be --key value pairs");
  }
  if (command == "gen") return CmdGen(options);
  if (command == "ref") return CmdRef();
  if (command == "build") return CmdBuild(options);
  if (command == "evaluate") return CmdEvaluate(options);
  if (command == "serve") return CmdServe(options);
  return Fail("unknown command '" + command + "'");
}
