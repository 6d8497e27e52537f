// homctl — command-line front end for the high-order model pipeline.
//
//   homctl generate --stream stagger --n 20000 --seed 1 --out hist.csv
//   homctl build    --stream stagger --in hist.csv --out model.hom
//                   [--seed S] [--threads N]
//                   [--metrics-out build_metrics.json] [--trace-out t.json]
//   homctl evaluate --model model.hom --in test.csv [--labeled 0.1]
//                   [--metrics-out eval_metrics.json]
//                   [--journal-out events.jsonl] [--trace-out t.json]
//                   [--latency-sample N]
//   homctl serve    --model model.hom --in online.csv [--listen 9100]
//                   [--passes N] [--checkpoint-out c.homc]
//                   [--replicate-to host:port] [--ship-every N]
//                   [--standby] [--promote-after MS]
//   homctl swap     --target host:port --model new.hom
//   homctl inspect  --model model.hom
//   homctl alerts   [--config alerts.json] [--slo X] [--format pretty|json]
//   homctl checkpoint ckpt.homc [--model model.hom]
//   homctl chaos    [--seed S] [--trials N] [--dir scratch]
//   homctl stats    build_metrics.json
//   homctl tail     events.jsonl [--follow]
//   homctl monitor  events.jsonl
//   homctl trace    merge --spans a.jsonl,b.jsonl
//                   [--journals x.jsonl,y.jsonl] [--out merged.json]
//
// `evaluate` can persist its serving state (`--checkpoint-out c.homc`,
// optionally every N records with `--checkpoint-every N`) and later pick
// up exactly where it stopped (`--resume c.homc`, typically with
// `--stop-after N` on the first run); the resumed run's predictions and
// journal are identical to an uninterrupted one. `--input-policy`
// chooses how malformed input is handled (error | skip |
// impute-majority), `checkpoint` pretty-prints a saved checkpoint, and
// `chaos` runs a seeded corruption sweep that proves damaged model and
// checkpoint files are rejected with clean errors rather than crashes.
//
// Streams name one of the built-in benchmark generators (stagger,
// hyperplane, intrusion, sea); their schema travels inside the model file,
// so `evaluate`/`inspect` work on any saved model.
//
// `--metrics-out <file>` writes the run's telemetry — per-phase build
// timings, the optimization counters of Section II-D (classifiers trained
// vs. reused, early terminations, similarity-cache hit rate), the
// prediction-latency histogram (with p50/p95/p99), the per-concept online
// stats, and the event-journal summary — as JSON in the same
// schema_version-2 format the bench harness emits (see
// tools/check_bench_json.py). `stats` pretty-prints such a file.
//
// `--journal-out <file>` streams the online phase's event journal (concept
// switches, drift suspicion/confirmation, model reuse/relearn, HMM
// predictions, windowed errors) as JSON lines; `tail` pretty-prints such a
// file and `tail --follow` (alias: `monitor`) keeps watching it, so a
// long evaluate in one terminal can be observed live from another.
// `--trace-out <file>` exports a Chrome trace-event timeline (open in
// Perfetto or chrome://tracing) of the build phases and/or journal events.
//
// `evaluate --listen <port>` (0 = ephemeral) and `serve` expose live
// introspection over HTTP while the run is in flight: `/metrics` in
// Prometheus text format (labeled per-concept series included),
// `/healthz` (liveness + last-checkpoint age), `/statusz` (active
// concept, drift-filter posterior, per-concept stats, alert summary,
// recent journal events, slowest requests with stage breakdowns),
// `/alertz` (full alert-rule status), `/timeseriesz[?series=S&window=N&
// mode=raw|rate]` (the in-process metric time-series ring), and
// `/profilez?seconds=N&hz=F` (on-demand folded CPU profile of the next N
// seconds). Model-health monitoring (DESIGN.md §12) snapshots the metrics
// registry into a fixed-memory ring every `--monitor-every` records and
// evaluates the alert rules against it: `--alerts-config f.json` loads a
// declarative rule pack (see `homctl alerts`), the default pack watches
// the windowed error rate against `--slo` (default 0.30) plus drift /
// entropy / checkpoint-age health signals. For `evaluate` the monitor
// also runs headless (no --listen) when any of --alerts-config /
// --monitor-every / --slo is given, so a journaled run records alert
// fire/resolve events at deterministic record offsets.
// `serve` replays the online stream in passes until SIGTERM or
// SIGINT, then drains gracefully. `stats --format prometheus` renders a
// saved telemetry file through the same text encoder.
// `--profile-out <file>` (evaluate and serve) runs the whole command
// under the sampling profiler (default 99 Hz, override with
// --profile-hz) and writes a folded stack profile at exit.
// The boolean flag `--verbose` raises the log level to debug and
// timestamps every line; every command takes it. Any other option a
// command does not read is an error (exit 1), so a typo such as
// `--labelled` cannot silently fall back to a default.
//
// `build --threads N` sizes the offline build's thread pool (0 or absent =
// auto: the HOM_THREADS environment variable, then the hardware thread
// count; 1 = fully serial). The built model is bit-identical at every
// thread count.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "classifiers/decision_tree.h"
#include "common/file_io.h"
#include "common/http_client.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/io.h"
#include "data/sanitize.h"
#include "eval/prequential.h"
#include "eval/serving_status.h"
#include "fault/fault_injector.h"
#include "highorder/builder.h"
#include "highorder/checkpoint.h"
#include "highorder/serialization.h"
#include "obs/alerts.h"
#include "obs/build_info.h"
#include "obs/event_journal.h"
#include "obs/exposition.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/request_timer.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/trace_export.h"
#include "replication/replica.h"
#include "replication/shipper.h"
#include "replication/swap.h"
#include "streams/hyperplane.h"
#include "streams/intrusion.h"
#include "streams/sea.h"
#include "streams/stagger.h"

namespace {

using namespace hom;

struct Args {
  std::map<std::string, std::string> options;
  std::string positional;  ///< bare argument, for commands that take one

  const char* Get(const std::string& key, const char* fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second.c_str();
  }
  bool Has(const std::string& key) const { return options.count(key) > 0; }
};

/// Flags that take no value; their presence sets the option to "1".
bool IsBooleanFlag(const std::string& key) {
  return key == "verbose" || key == "follow" || key == "standby";
}

/// Splits "host:port" for --replicate-to / --target. The port must be a
/// positive 16-bit number; everything before the last ':' is the host.
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("expected host:port, got '" + spec + "'");
  }
  long port = std::atol(spec.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("port out of range in '" + spec + "'");
  }
  return std::make_pair(spec.substr(0, colon),
                        static_cast<uint16_t>(port));
}

/// Parses the `[--flag] [--key value ...]` after `homctl <command>`. Every
/// option must start with "--", and a non-boolean option missing its value
/// is an error, so a typo like a trailing `--metrics-out` cannot pass
/// unnoticed. Only commands that take a positional accept one bare
/// argument; everywhere else a bare token is a typo.
Result<Args> ParseArgs(int argc, char** argv, bool takes_positional) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      if (takes_positional && args.positional.empty()) {
        args.positional = key;
        continue;
      }
      return Status::InvalidArgument("expected an option, got '" + key +
                                     "' (options start with --)");
    }
    key = key.substr(2);
    if (key.empty()) {
      return Status::InvalidArgument("empty option name '--'");
    }
    if (IsBooleanFlag(key)) {
      args.options[key] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("option --" + key +
                                     " is missing its value");
    }
    args.options[key] = argv[++i];
  }
  return args;
}

std::unique_ptr<StreamGenerator> MakeGenerator(const std::string& stream,
                                               uint64_t seed, double lambda) {
  if (stream == "stagger") {
    StaggerConfig config;
    if (lambda > 0) config.lambda = lambda;
    return std::make_unique<StaggerGenerator>(seed, config);
  }
  if (stream == "hyperplane") {
    HyperplaneConfig config;
    if (lambda > 0) config.lambda = lambda;
    return std::make_unique<HyperplaneGenerator>(seed, config);
  }
  if (stream == "intrusion") {
    IntrusionConfig config;
    if (lambda > 0) config.lambda = lambda;
    return std::make_unique<IntrusionGenerator>(seed, config);
  }
  if (stream == "sea") {
    SeaConfig config;
    if (lambda > 0) config.lambda = lambda;
    return std::make_unique<SeaGenerator>(seed, config);
  }
  return nullptr;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "homctl: %s\n", message.c_str());
  return 1;
}

/// Writes one telemetry document in the bench-harness schema
/// (schema_version 3): a single result row plus the process metrics
/// snapshot, an optional phase tree, and any extra top-level sections
/// ("journal", "profile", "concept_stats", ...) appended in order.
Status WriteMetricsFile(
    const std::string& path, const std::string& name,
    const obs::JsonValue& row_values, const obs::PhaseNode* phases,
    std::vector<std::pair<std::string, obs::JsonValue>> extra_sections = {}) {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("schema_version", 3);
  doc.Set("name", name);
  doc.Set("scale", obs::JsonValue());
  obs::JsonValue row = obs::JsonValue::Object();
  row.Set("name", name);
  row.Set("values", row_values);
  obs::JsonValue results = obs::JsonValue::Array();
  results.Append(std::move(row));
  doc.Set("results", std::move(results));
  doc.Set("metrics", obs::MetricsRegistry::Global().Snapshot().ToJson());
  doc.Set("phases", phases != nullptr && phases->count > 0
                        ? phases->ToJson()
                        : obs::JsonValue());
  for (auto& [section, json] : extra_sections) {
    doc.Set(section, std::move(json));
  }
  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(2) << "\n";
  if (!out) return Status::Internal("failed writing " + path);
  std::printf("telemetry: wrote %s\n", path.c_str());
  return Status::OK();
}

/// Model-health monitoring state shared by evaluate and serve: the metric
/// time-series ring plus the alert engine ticked from on_progress.
struct Monitoring {
  std::unique_ptr<obs::TimeSeriesStore> timeseries;
  std::unique_ptr<obs::AlertEngine> alerts;
  double error_slo = 0.0;

  bool enabled() const { return timeseries != nullptr; }
};

/// Builds the monitor pair from --alerts-config / --slo /
/// --timeseries-retention. The rule pack is the config file when given,
/// else the built-in default pack parameterized by the SLO.
Result<Monitoring> MakeMonitoring(const Args& args) {
  Monitoring mon;
  mon.error_slo = std::atof(args.Get("slo", "0.30"));
  obs::TimeSeriesOptions ts_options;
  ts_options.retention_ticks = static_cast<size_t>(
      std::atoll(args.Get("timeseries-retention", "360")));
  mon.timeseries = std::make_unique<obs::TimeSeriesStore>(ts_options);
  std::vector<obs::AlertRule> rules;
  if (args.Has("alerts-config")) {
    HOM_ASSIGN_OR_RETURN(
        rules, obs::LoadAlertRulesFromFile(args.Get("alerts-config", "")));
  } else {
    rules = obs::DefaultAlertRules(mon.error_slo);
  }
  HOM_ASSIGN_OR_RETURN(mon.alerts, obs::AlertEngine::Make(std::move(rules)));
  return mon;
}

/// Registers the introspection endpoints on a fresh HttpServer and starts
/// it. `board` (and the journal it references) and `mon` must outlive the
/// server — all live on the owning command's stack. /alertz and
/// /timeseriesz appear only when monitoring is enabled.
Result<std::unique_ptr<obs::HttpServer>> StartIntrospectionServer(
    ServingStatusBoard* board, const Monitoring& mon, uint16_t port,
    const std::function<void(obs::HttpServer*)>& register_extra = {}) {
  obs::HttpServer::Options options;
  options.port = port;
  auto server = std::make_unique<obs::HttpServer>(std::move(options));
  server->Handle("/metrics", [] {
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::EncodePrometheusText(
        obs::MetricsRegistry::Global().Snapshot());
    return response;
  });
  server->Handle("/healthz", [board] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = board->HealthJson().Dump(2) + "\n";
    return response;
  });
  server->Handle("/statusz", [board] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = board->StatusJson().Dump(2) + "\n";
    return response;
  });
  if (mon.enabled()) {
    obs::AlertEngine* alerts = mon.alerts.get();
    server->Handle("/alertz", [alerts] {
      obs::HttpResponse response;
      response.content_type = "application/json";
      response.body = alerts->StatusJson().Dump(2) + "\n";
      return response;
    });
    obs::TimeSeriesStore* timeseries = mon.timeseries.get();
    server->Handle(
        "/timeseriesz", [timeseries](const obs::HttpRequest& request) {
          obs::HttpResponse response;
          response.content_type = "application/json";
          std::string series = request.QueryOr("series", "");
          if (series.empty()) {
            // No series parameter: answer the index (ring stats + the
            // sorted series list) so a browser can discover what to ask.
            response.body = timeseries->IndexJson().Dump(2) + "\n";
            return response;
          }
          size_t window = static_cast<size_t>(
              std::atoll(request.QueryOr("window", "60")));
          auto json = timeseries->QueryJson(series, window,
                                            request.QueryOr("mode", "raw"));
          if (!json.ok()) {
            response.status = json.status().IsNotFound() ? 404 : 400;
            obs::JsonValue error = obs::JsonValue::Object();
            error.Set("error", obs::JsonValue(json.status().ToString()));
            response.body = error.Dump(2) + "\n";
            return response;
          }
          response.body = json->Dump(2) + "\n";
          return response;
        });
  }
  // On-demand CPU profile: GET /profilez?seconds=N&hz=F answers a folded
  // stack profile of the window. Blocking (single HTTP worker), bounded at
  // 30 s; 409 while another window (e.g. --profile-out) is running.
  server->Handle("/profilez", obs::HandleProfilezRequest);
  // The newest distributed-trace spans this process recorded (shipper
  // POSTs, standby applies, swap legs), for ad-hoc correlation without
  // waiting for a --spans-out file.
  server->Handle("/tracez", [] {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = obs::TraceBuffer::Instance().RecentJson().Dump(2) + "\n";
    return response;
  });
  if (register_extra) register_extra(server.get());
  HOM_RETURN_NOT_OK(server->Start());
  return server;
}

/// Hand-off slot between the /swapz handler (HTTP worker thread) and the
/// serving loop: the handler parses and parks the incoming model, trips
/// the loop's pause flag, and blocks until the loop reports the outcome.
/// In-flight records finish normally — the loop only checks the flag on
/// record boundaries — so a swap never drops a request.
struct SwapController {
  std::mutex mu;
  std::condition_variable cv;
  std::unique_ptr<HighOrderClassifier> incoming;
  bool pending = false;           ///< a model is parked, loop not done yet
  bool done = false;              ///< outcome fields below are valid
  Status result;
  obs::JsonValue reply = obs::JsonValue::Object();
  std::atomic<bool>* interrupt = nullptr;
  /// Trace context of the /swapz request (captured from the handler
  /// thread's server span), so the serving loop's migrate/resume work —
  /// which runs on a different thread — joins the caller's trace.
  obs::TraceContext trace;
};

/// POST /swapz with HOM2 model bytes as the body. Validates the model on
/// the handler thread (a corrupt upload answers 400 without ever touching
/// the serving loop), then waits for the loop to migrate state and swap.
obs::HttpResponse HandleSwapRequest(SwapController* swap,
                                    const obs::HttpRequest& request) {
  obs::HttpResponse response;
  response.content_type = "application/json";
  auto error = [&response](int status, const std::string& message) {
    obs::JsonValue body = obs::JsonValue::Object();
    body.Set("error", obs::JsonValue(message));
    response.status = status;
    response.body = body.Dump(2) + "\n";
    return response;
  };
  std::istringstream in(request.body, std::ios::binary);
  auto loaded = LoadHighOrderModel(&in);
  if (!loaded.ok()) {
    return error(400, "model rejected: " + loaded.status().ToString());
  }
  std::unique_lock<std::mutex> lock(swap->mu);
  if (swap->pending) return error(409, "another swap is in progress");
  swap->incoming = std::move(*loaded);
  swap->pending = true;
  swap->done = false;
  swap->trace = obs::CurrentTraceContext() != nullptr
                    ? *obs::CurrentTraceContext()
                    : obs::TraceContext{};
  swap->interrupt->store(true, std::memory_order_relaxed);
  bool finished = swap->cv.wait_for(lock, std::chrono::seconds(30),
                                    [swap] { return swap->done; });
  if (!finished) {
    // Reclaim the parked model so a later attempt is not answered 409.
    swap->incoming.reset();
    swap->pending = false;
    return error(503, "serving loop did not pick up the swap in 30s");
  }
  swap->pending = false;
  if (!swap->result.ok()) {
    return error(409, "swap failed: " + swap->result.ToString());
  }
  response.status = 200;
  response.body = swap->reply.Dump(2) + "\n";
  return response;
}

/// Publishes the hom_build_info gauge keyed by the serving model's schema
/// fingerprint, so a scrape can tell *what* this process is serving.
void PublishModelBuildInfo(const HighOrderClassifier& model) {
  std::string fingerprint = "none";
  if (auto fp = SchemaFingerprint(*model.schema()); fp.ok()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", *fp);
    fingerprint = buf;
  }
  obs::PublishBuildInfo(fingerprint);
}

/// --profile-out support shared by evaluate and serve: arms the sampling
/// profiler at --profile-hz (default 99) for the whole run.
bool StartRunProfiler(const Args& args) {
  if (!args.Has("profile-out")) return false;
  obs::ProfileOptions options;
  options.hz = std::atof(args.Get("profile-hz", "99"));
  if (Status st = obs::SamplingProfiler::Global().Start(options); !st.ok()) {
    std::fprintf(stderr, "homctl: profiler: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

/// Collects the --profile-out window and writes the folded profile.
Result<obs::ProfileData> FinishRunProfiler(const Args& args) {
  obs::ProfileData profile = obs::SamplingProfiler::Global().Collect();
  std::string path = args.Get("profile-out", "");
  std::ofstream out(path, std::ios::trunc);
  out << profile.ToFolded();
  if (!out) return Status::Internal("failed writing " + path);
  std::printf("profile: %zu samples (%zu distinct stacks) -> %s\n",
              profile.samples.size(), profile.FoldedCounts().size(),
              path.c_str());
  return profile;
}

/// Set by SIGTERM/SIGINT in `homctl serve`; RunPrequential polls it via
/// PrequentialOptions::stop_flag, so a signal drains the in-flight record
/// and exits cleanly instead of killing the process mid-write.
std::atomic<bool> g_shutdown{false};

extern "C" void HandleShutdownSignal(int) {
  g_shutdown.store(true, std::memory_order_relaxed);
}

int CmdGenerate(const Args& args) {
  std::string stream = args.Get("stream", "stagger");
  size_t n = static_cast<size_t>(std::atoll(args.Get("n", "20000")));
  uint64_t seed = static_cast<uint64_t>(std::atoll(args.Get("seed", "1")));
  double lambda = std::atof(args.Get("lambda", "0"));
  std::string out = args.Get("out", "stream.csv");

  std::unique_ptr<StreamGenerator> gen = MakeGenerator(stream, seed, lambda);
  if (gen == nullptr) return Fail("unknown stream '" + stream + "'");
  Dataset data = gen->Generate(n);
  if (Status st = WriteCsv(data, out); !st.ok()) return Fail(st.ToString());
  std::printf("wrote %zu %s records to %s\n", data.size(), stream.c_str(),
              out.c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  std::string stream = args.Get("stream", "stagger");
  std::string in = args.Get("in", "");
  std::string out = args.Get("out", "model.hom");
  uint64_t seed = static_cast<uint64_t>(std::atoll(args.Get("seed", "7")));
  if (in.empty()) return Fail("build requires --in <history.csv>");

  std::unique_ptr<StreamGenerator> gen = MakeGenerator(stream, 1, 0);
  if (gen == nullptr) return Fail("unknown stream '" + stream + "'");
  auto history = ReadCsv(gen->schema(), in);
  if (!history.ok()) return Fail(history.status().ToString());

  HighOrderBuildConfig config;
  config.clustering.num_threads =
      static_cast<size_t>(std::atoll(args.Get("threads", "0")));
  HighOrderModelBuilder builder(DecisionTree::Factory(), config);
  Rng rng(seed);
  HighOrderBuildReport report;
  auto model = builder.Build(*history, &rng, &report);
  if (!model.ok()) return Fail(model.status().ToString());
  if (Status st = SaveHighOrderModelToFile(out, **model); !st.ok()) {
    return Fail(st.ToString());
  }
  std::printf("built high-order model from %zu records: %zu concepts in "
              "%.2fs (%zu threads, %llu pool tasks) -> %s\n",
              report.num_records, report.num_concepts, report.build_seconds,
              report.effective_threads,
              static_cast<unsigned long long>(report.pool_tasks), out.c_str());
  if (args.Has("metrics-out")) {
    obs::JsonValue values = obs::JsonValue::Object();
    values.Set("num_records", static_cast<uint64_t>(report.num_records));
    values.Set("num_chunks", static_cast<uint64_t>(report.num_chunks));
    values.Set("num_concepts", static_cast<uint64_t>(report.num_concepts));
    values.Set("build_seconds", report.build_seconds);
    values.Set("final_q", report.final_q);
    values.Set("threads", static_cast<uint64_t>(report.effective_threads));
    values.Set("pool_tasks", report.pool_tasks);
    if (Status st = WriteMetricsFile(args.Get("metrics-out", ""), "build",
                                     values, &report.phases);
        !st.ok()) {
      return Fail(st.ToString());
    }
  }
  if (args.Has("trace-out")) {
    std::string trace_path = args.Get("trace-out", "");
    if (Status st = obs::WriteChromeTrace(trace_path, &report.phases,
                                          /*journal=*/nullptr);
        !st.ok()) {
      return Fail(st.ToString());
    }
    std::printf("telemetry: wrote %s\n", trace_path.c_str());
  }
  return 0;
}

int CmdEvaluate(const Args& args) {
  std::string model_path = args.Get("model", "model.hom");
  std::string in = args.Get("in", "");
  double labeled = std::atof(args.Get("labeled", "1.0"));
  if (in.empty()) return Fail("evaluate requires --in <test.csv>");

  auto model = LoadHighOrderModelFromFile(model_path);
  if (!model.ok()) return Fail(model.status().ToString());
  PublishModelBuildInfo(**model);

  auto policy = InputPolicyFromName(args.Get("input-policy", "skip"));
  if (!policy.ok()) return Fail(policy.status().ToString());
  (*model)->set_input_policy(*policy);

  CsvReadOptions csv_options;
  csv_options.policy = *policy;
  CsvReadReport csv_report;
  auto test = ReadCsv((*model)->schema(), in, csv_options, &csv_report);
  if (!test.ok()) return Fail(test.status().ToString());
  if (csv_report.rows_skipped > 0 || csv_report.rows_imputed > 0) {
    std::printf("input: %llu rows skipped, %llu imputed (of %llu read)\n",
                static_cast<unsigned long long>(csv_report.rows_skipped),
                static_cast<unsigned long long>(csv_report.rows_imputed),
                static_cast<unsigned long long>(csv_report.rows_read));
    for (const std::string& sample : csv_report.sample_errors) {
      std::fprintf(stderr, "homctl: input: %s\n", sample.c_str());
    }
  }

  if (args.Has("latency-sample")) {
    (*model)->set_latency_sample_period(
        static_cast<size_t>(std::atoll(args.Get("latency-sample", "64"))));
  }

  // One journal serves --journal-out (streamed live), --trace-out (dumped
  // after the run) and the "journal" telemetry section.
  obs::EventJournal journal;
  if (args.Has("journal-out")) {
    if (Status st = journal.AttachJsonlSink(args.Get("journal-out", ""));
        !st.ok()) {
      return Fail(st.ToString());
    }
  }
  obs::ScopedJournal scoped(&journal);

  PrequentialOptions options;
  options.labeled_fraction = labeled > 0 ? labeled : 1.0;
  options.track_concept_stats = true;
  options.stop_after =
      static_cast<uint64_t>(std::atoll(args.Get("stop-after", "0")));
  // Per-record stage timing: splits every scored record into
  // parse/sanitize/predict/observe/checkpoint, feeds the
  // hom.serve.stage_seconds histograms, and retains the slowest K for
  // /statusz. Cheap enough (a few clock reads per record) to stay on.
  obs::RequestTimer request_timer;
  options.request_timer = &request_timer;

  // Resume: reinstate classifier + harness state from a checkpoint, then
  // let RunPrequential's start_record skip the already-scored prefix so
  // the resumed run continues the same prequential bookkeeping.
  std::shared_ptr<OnlineConceptStats> concept_stats;
  if (args.Has("resume")) {
    std::string resume_path = args.Get("resume", "");
    auto ckpt = LoadCheckpointFromFile(resume_path);
    if (!ckpt.ok()) return Fail(ckpt.status().ToString());
    if (Status st = ApplyCheckpoint(*ckpt, model->get()); !st.ok()) {
      return Fail(st.ToString());
    }
    options.start_record = ckpt->stream_offset;
    options.carry_errors = ckpt->num_errors;
    options.carry_window_errors = ckpt->window_errors;
    options.carry_window_fill = ckpt->window_fill;
    concept_stats = ckpt->concept_stats;
    std::printf("resumed from %s at record %llu (%llu errors so far)\n",
                resume_path.c_str(),
                static_cast<unsigned long long>(ckpt->stream_offset),
                static_cast<unsigned long long>(ckpt->num_errors));
  }
  // The harness needs a stats object we can also reach from the
  // checkpoint callback, so always pass one in explicitly.
  if (concept_stats == nullptr) {
    concept_stats = std::make_shared<OnlineConceptStats>(
        (*model)->num_classes(), options.journal_error_window);
  }
  options.resume_concept_stats = concept_stats;

  // Model-health monitoring: on whenever the run is observable (--listen)
  // or explicitly requested headless (--alerts-config / --monitor-every /
  // --slo), so a journaled run without a server still records alert
  // fire/resolve events at deterministic record offsets.
  Monitoring mon;
  bool monitored = args.Has("listen") || args.Has("alerts-config") ||
                   args.Has("monitor-every") || args.Has("slo");
  ServingStatusBoard board;
  std::unique_ptr<obs::HttpServer> server;
  if (monitored) {
    auto made = MakeMonitoring(args);
    if (!made.ok()) return Fail(made.status().ToString());
    mon = std::move(*made);
    board.SetErrorSlo(mon.error_slo);
    board.SetMonitors(mon.timeseries.get(), mon.alerts.get());
    // Sampled probability calibration rides along with monitoring: the
    // per-concept Brier score feeds hom.concept.brier_score{concept=...}.
    // Each sample is a full (unpruned) mixture evaluation — several times
    // a pruned predict — so the period is the main lever keeping the
    // monitored path inside its overhead budget (see bench_alerts).
    options.calibration_sample_period = static_cast<size_t>(
        std::atoll(args.Get("calibration-every", "512")));
  }
  // --listen <port>: expose the introspection endpoints for the duration
  // of the run (port 0 = ephemeral; the banner prints the resolved one).
  if (args.Has("listen")) {
    board.SetStaticInfo(model_path, in, (*model)->num_concepts());
    board.SetJournal(&journal);
    board.SetRequestTimer(&request_timer);
    auto started = StartIntrospectionServer(
        &board, mon,
        static_cast<uint16_t>(std::atoi(args.Get("listen", "0"))));
    if (!started.ok()) return Fail(started.status().ToString());
    server = std::move(*started);
    std::printf("introspection: listening on http://127.0.0.1:%u "
                "(/metrics /healthz /statusz /alertz /timeseriesz "
                "/profilez)\n",
                static_cast<unsigned>(server->port()));
    std::fflush(stdout);  // scrapers behind a pipe need the port now
  }
  if (monitored) {
    // One cadence drives both the board refresh and the monitor tick;
    // --monitor-every overrides --progress-every when given. Cadence is in
    // records, never wall time — the stored history and every alert
    // transition are a pure function of the stream.
    options.progress_every = static_cast<uint64_t>(std::atoll(
        args.Has("monitor-every") ? args.Get("monitor-every", "200")
                                  : args.Get("progress-every", "200")));
    options.on_progress = [&](const PrequentialProgress& progress) {
      ServingStatusBoard::Progress sp;
      sp.records = progress.record;
      sp.errors = progress.num_errors;
      (*model)->ExportServingStatus(&sp);
      board.UpdateProgress(sp);
      if (concept_stats != nullptr) board.UpdateConceptStats(*concept_stats);
      mon.timeseries->TickFromRegistry(obs::MetricsRegistry::Global(),
                                       static_cast<int64_t>(progress.record));
      mon.alerts->EvaluateTick(*mon.timeseries,
                               static_cast<int64_t>(progress.record));
    };
    board.SetState("serving");
  }

  // Checkpointing: save serving state every --checkpoint-every records
  // (and always once more at the end of the run).
  std::string ckpt_out = args.Get("checkpoint-out", "");
  bool ckpt_failed = false;
  auto save_checkpoint = [&](const PrequentialProgress& progress) {
    auto ckpt = CaptureCheckpoint(**model);
    if (ckpt.ok()) {
      ckpt->stream_offset = progress.record;
      ckpt->num_errors = progress.num_errors;
      ckpt->window_errors = progress.window_errors;
      ckpt->window_fill = progress.window_fill;
      ckpt->concept_stats = concept_stats;
      Status st = SaveCheckpointToFile(ckpt_out, *ckpt);
      if (st.ok()) {
        if (server != nullptr) board.RecordCheckpoint(progress.record);
        return;
      }
      std::fprintf(stderr, "homctl: checkpoint: %s\n",
                   st.ToString().c_str());
    } else {
      std::fprintf(stderr, "homctl: checkpoint: %s\n",
                   ckpt.status().ToString().c_str());
    }
    ckpt_failed = true;
  };
  if (!ckpt_out.empty()) {
    options.checkpoint_every =
        static_cast<uint64_t>(std::atoll(args.Get("checkpoint-every", "0")));
    options.on_checkpoint = save_checkpoint;
  }

  bool profiling = StartRunProfiler(args);
  PrequentialResult result = RunPrequential(model->get(), *test, options);
  obs::ProfileData profile;
  if (profiling) {
    auto collected = FinishRunProfiler(args);
    if (!collected.ok()) return Fail(collected.status().ToString());
    profile = std::move(*collected);
  }
  if (server != nullptr) {
    board.SetState("draining");
    // --linger <seconds>: hold the server (and the final board/metrics
    // state) open after the run drains, so a pull-based scraper can still
    // collect a short run's last scrape — the standard short-job pattern.
    if (int linger_s = std::atoi(args.Get("linger", "0")); linger_s > 0) {
      std::printf("introspection: lingering %ds after drain\n", linger_s);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::seconds(linger_s));
    }
    server->Stop();
  }
  if (!ckpt_out.empty()) {
    save_checkpoint({result.num_records, result.num_errors,
                     result.window_errors_carry, result.window_fill_carry});
    if (ckpt_failed) return Fail("checkpoint save failed (see above)");
    std::printf("checkpoint: wrote %s at record %zu\n", ckpt_out.c_str(),
                result.num_records);
  }
  std::printf("prequential error %.5f over %zu records (%.3fs, %zu "
              "concepts)\n",
              result.error_rate(), result.num_records, result.seconds,
              (*model)->num_concepts());
  if (mon.enabled()) {
    std::printf("alerts: %zu firing, %llu transitions over %llu "
                "evaluations\n",
                mon.alerts->firing(),
                static_cast<unsigned long long>(mon.alerts->transitions()),
                static_cast<unsigned long long>(mon.alerts->evaluations()));
  }
  if (args.Has("journal-out")) {
    journal.CloseSink();
    std::printf("journal: %llu events -> %s\n",
                static_cast<unsigned long long>(journal.emitted()),
                args.Get("journal-out", ""));
  }
  if (args.Has("metrics-out")) {
    obs::JsonValue values = obs::JsonValue::Object();
    values.Set("error", result.error_rate());
    values.Set("num_records", static_cast<uint64_t>(result.num_records));
    values.Set("seconds", result.seconds);
    values.Set("num_concepts",
               static_cast<uint64_t>((*model)->num_concepts()));
    std::vector<std::pair<std::string, obs::JsonValue>> extra;
    extra.emplace_back("journal", journal.SummaryJson());
    extra.emplace_back("concept_stats",
                       result.concept_stats != nullptr
                           ? result.concept_stats->ToJson()
                           : obs::JsonValue());
    extra.emplace_back("profile", profile.empty() ? obs::JsonValue()
                                                  : profile.SummaryJson());
    if (Status st = WriteMetricsFile(args.Get("metrics-out", ""), "evaluate",
                                     values, nullptr, std::move(extra));
        !st.ok()) {
      return Fail(st.ToString());
    }
  }
  if (args.Has("trace-out")) {
    std::string trace_path = args.Get("trace-out", "");
    if (Status st = obs::WriteChromeTrace(trace_path, /*phases=*/nullptr,
                                          &journal,
                                          profile.empty() ? nullptr : &profile);
        !st.ok()) {
      return Fail(st.ToString());
    }
    std::printf("telemetry: wrote %s\n", trace_path.c_str());
  }
  return 0;
}

/// `homctl serve --model m.hom --in online.csv [--listen PORT]`: long-lived
/// serving loop. Replays the online stream in passes (--passes N, 0 = until
/// a signal) while exposing /metrics, /healthz, /statusz, and drains
/// gracefully on SIGTERM/SIGINT: the in-flight record finishes, a final
/// checkpoint is written when --checkpoint-out is set, the server stops
/// (journaling kServerStop), and the process exits 0.
int CmdServe(const Args& args) {
  std::string model_path = args.Get("model", "model.hom");
  std::string in = args.Get("in", "");
  if (in.empty()) return Fail("serve requires --in <online.csv>");

  // --trace-seed S: deterministic trace/span ids (chaos runs reproduce
  // byte-identical timelines). Each process of a replicated pair needs its
  // own seed or their ids collide in the merged view.
  if (args.Has("trace-seed")) {
    obs::SeedTraceIds(
        static_cast<uint64_t>(std::atoll(args.Get("trace-seed", "0"))));
  }

  auto model = LoadHighOrderModelFromFile(model_path);
  if (!model.ok()) return Fail(model.status().ToString());
  PublishModelBuildInfo(**model);
  auto policy = InputPolicyFromName(args.Get("input-policy", "skip"));
  if (!policy.ok()) return Fail(policy.status().ToString());
  (*model)->set_input_policy(*policy);

  CsvReadOptions csv_options;
  csv_options.policy = *policy;
  auto online = ReadCsv((*model)->schema(), in, csv_options, nullptr);
  if (!online.ok()) return Fail(online.status().ToString());
  if (online->size() == 0) return Fail(in + " has no records to serve");

  obs::EventJournal journal;
  if (args.Has("journal-out")) {
    if (Status st = journal.AttachJsonlSink(args.Get("journal-out", ""));
        !st.ok()) {
      return Fail(st.ToString());
    }
  }
  obs::ScopedJournal scoped(&journal);

  // serve always monitors: the introspection surface includes /alertz and
  // /timeseriesz, and the default rule pack watches the health gauges.
  auto made = MakeMonitoring(args);
  if (!made.ok()) return Fail(made.status().ToString());
  Monitoring mon = std::move(*made);

  ServingStatusBoard board;
  obs::RequestTimer request_timer;
  board.SetStaticInfo(model_path, in, (*model)->num_concepts());
  board.SetJournal(&journal);
  board.SetRequestTimer(&request_timer);
  board.SetErrorSlo(mon.error_slo);
  board.SetMonitors(mon.timeseries.get(), mon.alerts.get());

  // Replication + hot-swap wiring. `pause` is the serving loop's stop
  // flag: shutdown signals (mirrored from g_shutdown on progress ticks)
  // and /swapz requests both stop the loop at a record boundary.
  std::atomic<bool> pause{false};
  SwapController swap;
  swap.interrupt = &pause;
  bool standby_mode = args.Has("standby");
  std::unique_ptr<replication::StandbyReplica> replica;
  if (standby_mode) {
    replication::ReplicaOptions replica_options;
    replica_options.promote_after_ms = static_cast<uint64_t>(
        std::atoll(args.Get("promote-after", "10000")));
    replica_options.replica_id = args.Get("replica-id", "standby");
    replica = std::make_unique<replication::StandbyReplica>(model->get(),
                                                            replica_options);
  }
  auto started = StartIntrospectionServer(
      &board, mon, static_cast<uint16_t>(std::atoi(args.Get("listen", "0"))),
      [&](obs::HttpServer* extra) {
        if (replica != nullptr) replica->RegisterHandlers(extra);
        extra->HandlePost("/swapz", [&swap](const obs::HttpRequest& request) {
          return HandleSwapRequest(&swap, request);
        });
      });
  if (!started.ok()) return Fail(started.status().ToString());
  std::unique_ptr<obs::HttpServer> server = std::move(*started);

  // Name this process for span files and /tracez, then (--spans-out)
  // stream every finished span to disk. The sink flushes per span, so a
  // SIGKILLed primary's file is complete up to the kill — the failover
  // timeline depends on that.
  obs::TraceBuffer::Instance().set_process_name(
      std::string(standby_mode ? "standby:" : "primary:") +
      std::to_string(server->port()));
  if (args.Has("spans-out")) {
    if (Status st = obs::TraceBuffer::Instance().AttachJsonlSink(
            args.Get("spans-out", ""));
        !st.ok()) {
      return Fail(st.ToString());
    }
  }

  g_shutdown.store(false, std::memory_order_relaxed);
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  uint64_t passes = static_cast<uint64_t>(std::atoll(args.Get("passes", "0")));
  uint64_t progress_every = static_cast<uint64_t>(std::atoll(
      args.Has("monitor-every") ? args.Get("monitor-every", "500")
                                : args.Get("progress-every", "500")));
  std::printf("serving: listening on http://127.0.0.1:%u "
              "(/metrics /healthz /statusz /alertz /timeseriesz /profilez), "
              "%zu records/pass, %s passes\n",
              static_cast<unsigned>(server->port()), online->size(),
              passes == 0 ? "unbounded" : std::to_string(passes).c_str());
  std::fflush(stdout);  // the smoke test parses the port through a pipe

  auto concept_stats = std::make_shared<OnlineConceptStats>(
      (*model)->num_classes(), /*window=*/500);
  std::string ckpt_out = args.Get("checkpoint-out", "");
  uint64_t checkpoint_every =
      static_cast<uint64_t>(std::atoll(args.Get("checkpoint-every", "0")));

  // --replicate-to is validated before the standby wait so a typo'd
  // target fails at startup, not after a promotion hours later.
  bool replicate = args.Has("replicate-to");
  std::pair<std::string, uint16_t> replicate_target;
  uint64_t ship_every =
      static_cast<uint64_t>(std::atoll(args.Get("ship-every", "500")));
  if (replicate) {
    auto target = ParseHostPort(args.Get("replicate-to", ""));
    if (!target.ok()) {
      return Fail("--replicate-to: " + target.status().ToString());
    }
    if (ship_every == 0) return Fail("--ship-every must be positive");
    replicate_target = std::move(*target);
  }

  // --standby: hold here as a warm replica until promotion (sustained
  // heartbeat loss past --promote-after, or a POST /replicaz/promote),
  // then serve from the last applied checkpoint. This is the same
  // exact-resume path `evaluate --resume` uses, so the promoted run's
  // predictions and journal match an uninterrupted primary's.
  uint64_t resume_record = 0;
  uint64_t resume_errors = 0;
  uint64_t resume_window_errors = 0;
  uint64_t resume_window_fill = 0;
  bool resume_pending = false;
  uint64_t primary_epoch = 1;
  if (standby_mode) {
    board.SetState("standby");
    std::printf("standby: awaiting checkpoints on /replicaz, promote after "
                "%s ms of heartbeat silence\n",
                args.Get("promote-after", "10000"));
    std::fflush(stdout);
    // Wait on promotion *state*, not on MaybePromote()'s transition: a
    // manual POST /replicaz/promote promotes on the handler thread, after
    // which MaybePromote() returns false forever — looping on its return
    // value would park this process for good.
    while (!g_shutdown.load(std::memory_order_relaxed) &&
           !replica->promoted()) {
      replica->MaybePromote();
      replica->UpdateGauges();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!g_shutdown.load(std::memory_order_relaxed)) {
      if (replica->has_checkpoint()) {
        ServingCheckpoint resume = replica->last_checkpoint();
        resume_record = resume.stream_offset;
        resume_errors = resume.num_errors;
        resume_window_errors = resume.window_errors;
        resume_window_fill = resume.window_fill;
        if (resume.concept_stats != nullptr) {
          concept_stats = resume.concept_stats;
        }
        resume_pending = true;
      }
      primary_epoch = replica->promoted_epoch();
      std::printf("promoted: serving as primary (epoch %llu) from record "
                  "%llu\n",
                  static_cast<unsigned long long>(primary_epoch),
                  static_cast<unsigned long long>(resume_record));
      std::fflush(stdout);
    }
  }

  // --replicate-to host:port: ship a checkpoint to the standby every
  // --ship-every records (plus one at drain) and heartbeat on progress
  // ticks. A promoted standby ships with the bumped epoch it took over
  // with, so a deposed primary's checkpoints are recognizably stale.
  std::unique_ptr<replication::CheckpointShipper> shipper;
  if (replicate) {
    replication::ShipperOptions ship_options;
    ship_options.host = replicate_target.first;
    ship_options.port = replicate_target.second;
    ship_options.primary_id =
        args.Has("primary-id")
            ? args.Get("primary-id", "")
            : "homctl:" + std::to_string(server->port());
    ship_options.primary_epoch = primary_epoch;
    ship_options.http.connect_timeout_ms = 500;
    shipper = std::make_unique<replication::CheckpointShipper>(ship_options);
  }

  uint64_t total_records = resume_record;
  uint64_t total_errors = resume_errors;
  uint64_t final_window_errors = resume_window_errors;
  uint64_t final_window_fill = resume_window_fill;
  uint64_t pass = 0;
  auto last_heartbeat = std::chrono::steady_clock::now();
  // --profile-out: profile the whole serving loop; the folded profile is
  // written at drain. /profilez stays available for ad-hoc windows when
  // this is off (they share one profiler, so concurrent use answers 409).
  bool profiling = StartRunProfiler(args);
  board.SetState("serving");
  while (!g_shutdown.load(std::memory_order_relaxed) &&
         (passes == 0 || pass < passes)) {
    // Counts inside a pass start at zero; the board and checkpoints see
    // cumulative stream positions across passes.
    uint64_t start_record = 0;
    uint64_t carry_errors = 0;
    uint64_t carry_window_errors = 0;
    uint64_t carry_window_fill = 0;
    uint64_t base_records = total_records;
    uint64_t base_errors = total_errors;
    if (resume_pending) {
      // Resuming mid-pass — after a promotion, or after a swap stopped
      // the previous pass partway. The absolute position may span whole
      // replays of the finite file; the remainder is the in-pass offset.
      start_record = resume_record % online->size();
      carry_errors = resume_errors;
      carry_window_errors = resume_window_errors;
      carry_window_fill = resume_window_fill;
      base_records = resume_record - start_record;
      base_errors = 0;
      resume_pending = false;
    }
    pause.store(g_shutdown.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    auto publish = [&](const PrequentialProgress& progress) {
      uint64_t record = base_records + progress.record;
      ServingStatusBoard::Progress sp;
      sp.records = record;
      sp.errors = base_errors + progress.num_errors;
      (*model)->ExportServingStatus(&sp);
      board.UpdateProgress(sp);
      board.UpdateConceptStats(*concept_stats);
      mon.timeseries->TickFromRegistry(obs::MetricsRegistry::Global(),
                                       static_cast<int64_t>(record));
      mon.alerts->EvaluateTick(*mon.timeseries, static_cast<int64_t>(record));
      if (g_shutdown.load(std::memory_order_relaxed)) {
        pause.store(true, std::memory_order_relaxed);
      }
      if (shipper != nullptr) {
        auto now = std::chrono::steady_clock::now();
        if (now - last_heartbeat >= std::chrono::milliseconds(500)) {
          last_heartbeat = now;
          // Single-shot by design: the next beat supersedes a lost one.
          (void)shipper->Heartbeat(record);
        }
      }
    };
    PrequentialOptions options;
    options.track_concept_stats = true;
    options.resume_concept_stats = concept_stats;
    options.start_record = start_record;
    options.carry_errors = carry_errors;
    options.carry_window_errors = carry_window_errors;
    options.carry_window_fill = carry_window_fill;
    options.calibration_sample_period = static_cast<size_t>(
        std::atoll(args.Get("calibration-every", "512")));
    options.progress_every = progress_every;
    options.on_progress = publish;
    options.stop_flag = &pause;
    options.request_timer = &request_timer;
    if (!ckpt_out.empty() || shipper != nullptr) {
      options.checkpoint_every =
          shipper == nullptr ? checkpoint_every
          : ckpt_out.empty() || checkpoint_every == 0
              ? ship_every
              : std::min(ship_every, checkpoint_every);
      options.on_checkpoint = [&](const PrequentialProgress& progress) {
        // Root of the round's trace: capture, save, and ship (with the
        // standby's apply, via the propagated traceparent) all become one
        // causal chain under this span's trace id.
        obs::DistSpan round_span("checkpoint.round", obs::SpanKind::kInternal);
        auto ckpt = CaptureCheckpoint(**model);
        if (!ckpt.ok()) {
          round_span.set_status("capture failed");
          std::fprintf(stderr, "homctl: checkpoint: %s\n",
                       ckpt.status().ToString().c_str());
          return;
        }
        ckpt->stream_offset = base_records + progress.record;
        ckpt->num_errors = base_errors + progress.num_errors;
        ckpt->window_errors = progress.window_errors;
        ckpt->window_fill = progress.window_fill;
        ckpt->concept_stats = concept_stats;
        if (!ckpt_out.empty()) {
          if (Status st = SaveCheckpointToFile(ckpt_out, *ckpt); st.ok()) {
            board.RecordCheckpoint(base_records + progress.record);
          } else {
            std::fprintf(stderr, "homctl: checkpoint: %s\n",
                         st.ToString().c_str());
          }
        }
        if (shipper != nullptr) {
          auto report = shipper->Ship(*ckpt);
          if (report.ok()) {
            HOM_COUNTER_ADD("hom.replication.shipped_bytes",
                            report->wire_bytes);
          } else {
            // The standby being down must not take the primary with it;
            // the next ship retries from the current state.
            std::fprintf(stderr, "homctl: replicate: %s\n",
                         report.status().ToString().c_str());
          }
        }
      };
    }
    PrequentialResult result = RunPrequential(model->get(), *online, options);
    total_records = base_records + result.num_records;
    total_errors = base_errors + result.num_errors;
    final_window_errors = result.window_errors_carry;
    final_window_fill = result.window_fill_carry;

    bool swap_requested = false;
    {
      std::lock_guard<std::mutex> lock(swap.mu);
      swap_requested = swap.pending && !swap.done;
    }
    // The pause flag stopped the pass mid-stream (num_records counts from
    // start_record to the in-pass stop position). Whether or not the swap
    // handler is still waiting, the tail of this pass must be resumed, not
    // skipped — a timed-out /swapz clears swap.pending after tripping the
    // flag, and taking the ++pass path then would drop records and advance
    // the replay position early.
    bool paused_early = !g_shutdown.load(std::memory_order_relaxed) &&
                        result.num_records < online->size();
    if (swap_requested && !g_shutdown.load(std::memory_order_relaxed)) {
      // /swapz stopped the pass at a record boundary: migrate the drift
      // filter's state onto the new model, switch, and resume the pass
      // exactly where it stopped — no record is served twice or dropped.
      // The span adopts the /swapz request's context (captured on the
      // handler thread), so the pause -> migrate -> resume window shows up
      // under the swap caller's trace; its scope ends at the `continue`
      // below, i.e. exactly when serving resumes.
      obs::DistSpan swap_span("swap.apply", obs::SpanKind::kInternal,
                              swap.trace);
      auto swap_started = std::chrono::steady_clock::now();
      std::unique_ptr<HighOrderClassifier> fresh;
      {
        std::lock_guard<std::mutex> lock(swap.mu);
        fresh = std::move(swap.incoming);
      }
      Dataset probe((*model)->schema());
      size_t probe_n = std::min<size_t>(512, online->size());
      for (size_t i = 0; i < probe_n; ++i) {
        probe.AppendUnchecked(online->record(i));
      }
      auto mapping =
          replication::MigrateModelState(**model, fresh.get(), probe);
      std::lock_guard<std::mutex> lock(swap.mu);
      if (mapping.ok()) {
        fresh->set_input_policy(*policy);
        *model = std::move(fresh);
        PublishModelBuildInfo(**model);
        board.SetStaticInfo(model_path + " (swapped)", in,
                            (*model)->num_concepts());
        double agreement = 0.0;
        for (double a : mapping->agreement) agreement += a;
        if (!mapping->agreement.empty()) {
          agreement /= static_cast<double>(mapping->agreement.size());
        }
        double pause_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - swap_started)
                .count();
        HOM_COUNTER_INC("hom.replication.swaps");
        HOM_GAUGE_SET("hom.replication.swap_pause_ms", pause_ms);
        obs::EmitIfActive(obs::EventType::kModelSwapped, "swapz",
                          static_cast<int64_t>(total_records), -1, -1,
                          agreement);
        swap.result = Status::OK();
        swap.reply = obs::JsonValue::Object();
        swap.reply.Set("swapped", obs::JsonValue(true));
        swap.reply.Set("record", obs::JsonValue(total_records));
        swap.reply.Set("pause_ms", obs::JsonValue(pause_ms));
        swap.reply.Set("concepts",
                       obs::JsonValue(static_cast<uint64_t>(
                           (*model)->num_concepts())));
        swap.reply.Set("mean_agreement", obs::JsonValue(agreement));
        std::printf("swap: new model (%zu concepts) at record %llu, "
                    "pause %.1f ms, mean agreement %.3f\n",
                    (*model)->num_concepts(),
                    static_cast<unsigned long long>(total_records), pause_ms,
                    agreement);
        std::fflush(stdout);
      } else {
        // The old model never stopped being valid; it keeps serving.
        swap.result = mapping.status();
        swap_span.set_status("migration rejected");
      }
      swap.done = true;
      swap.cv.notify_all();
      resume_pending = true;
      resume_record = total_records;
      resume_errors = total_errors;
      resume_window_errors = result.window_errors_carry;
      resume_window_fill = result.window_fill_carry;
      continue;
    }
    if (paused_early) {
      // Swap handler gave up (30s timeout) and reclaimed its model after
      // the flag already stopped the pass: serve the rest of the pass.
      resume_pending = true;
      resume_record = total_records;
      resume_errors = total_errors;
      resume_window_errors = result.window_errors_carry;
      resume_window_fill = result.window_fill_carry;
      continue;
    }
    ++pass;
    if (passes == 0 && !g_shutdown.load(std::memory_order_relaxed)) {
      // Unbounded replay of a finite file: breathe between passes so a
      // tiny input does not turn the loop into a CPU spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  board.SetState("draining");
  if (profiling) {
    if (auto collected = FinishRunProfiler(args); !collected.ok()) {
      std::fprintf(stderr, "homctl: profiler: %s\n",
                   collected.status().ToString().c_str());
    }
  }
  {
    // A swap still parked when the drain started must not leave its
    // handler waiting out the full timeout.
    std::lock_guard<std::mutex> lock(swap.mu);
    if (swap.pending && !swap.done) {
      swap.incoming.reset();
      swap.result = Status::FailedPrecondition("serve is draining");
      swap.done = true;
      swap.cv.notify_all();
    }
  }
  if (!ckpt_out.empty() || shipper != nullptr) {
    auto ckpt = CaptureCheckpoint(**model);
    if (ckpt.ok()) {
      ckpt->stream_offset = total_records;
      ckpt->num_errors = total_errors;
      ckpt->window_errors = final_window_errors;
      ckpt->window_fill = final_window_fill;
      ckpt->concept_stats = concept_stats;
      if (!ckpt_out.empty()) {
        if (Status st = SaveCheckpointToFile(ckpt_out, *ckpt); st.ok()) {
          std::printf("checkpoint: wrote %s at record %llu\n",
                      ckpt_out.c_str(),
                      static_cast<unsigned long long>(total_records));
        } else {
          std::fprintf(stderr, "homctl: checkpoint: %s\n",
                       st.ToString().c_str());
        }
      }
      if (shipper != nullptr && total_records > 0) {
        // Parting ship so the standby resumes from the drain point, not
        // the last periodic checkpoint.
        if (auto report = shipper->Ship(*ckpt); report.ok()) {
          HOM_COUNTER_ADD("hom.replication.shipped_bytes",
                          report->wire_bytes);
          std::printf("replicate: shipped final checkpoint (sequence "
                      "%llu) at record %llu\n",
                      static_cast<unsigned long long>(report->sequence),
                      static_cast<unsigned long long>(total_records));
        } else {
          std::fprintf(stderr, "homctl: replicate: %s\n",
                       report.status().ToString().c_str());
        }
      }
    }
  }
  server->Stop();
  if (args.Has("journal-out")) journal.CloseSink();
  if (args.Has("spans-out")) {
    obs::TraceBuffer::Instance().CloseSink();
    std::printf("spans: %llu recorded -> %s\n",
                static_cast<unsigned long long>(
                    obs::TraceBuffer::Instance().recorded()),
                args.Get("spans-out", ""));
  }
  std::printf("alerts: %zu firing, %llu transitions over %llu evaluations\n",
              mon.alerts->firing(),
              static_cast<unsigned long long>(mon.alerts->transitions()),
              static_cast<unsigned long long>(mon.alerts->evaluations()));
  std::printf("serve: %s after %llu passes, %llu records, error %.5f\n",
              g_shutdown.load(std::memory_order_relaxed) ? "drained on signal"
                                                         : "completed",
              static_cast<unsigned long long>(pass),
              static_cast<unsigned long long>(total_records),
              total_records > 0 ? static_cast<double>(total_errors) /
                                      static_cast<double>(total_records)
                                : 0.0);
  return 0;
}

/// `homctl swap --target host:port --model new.hom`: pushes a freshly
/// built model to a running `homctl serve` over POST /swapz. The serve
/// process migrates its Markov-filter posterior onto the new model's
/// concepts and switches without dropping a request; the response echoes
/// the pause duration and the concept-mapping agreement.
int CmdSwap(const Args& args) {
  std::string target_spec = args.Get("target", "");
  if (target_spec.empty()) return Fail("swap requires --target host:port");
  std::string model_path = args.Get("model", "");
  if (model_path.empty()) return Fail("swap requires --model new.hom");
  auto target = ParseHostPort(target_spec);
  if (!target.ok()) return Fail("--target: " + target.status().ToString());
  auto bytes = ReadFileToString(model_path, /*max_bytes=*/size_t{1} << 29);
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  HttpClientOptions http;
  // The serve loop only notices the swap at a record boundary and the
  // migration probes every concept pair: give it more room than the
  // introspection default.
  http.io_timeout_ms = 35000;
  http.traceparent_provider = obs::CurrentTraceparentOrEmpty;
  HttpClient client(target->first, target->second, http);
  // Root of the swap's trace: the serve side's "POST /swapz" server span
  // and its pause -> migrate -> resume legs all parent back onto this.
  obs::DistSpan span("swap.request", obs::SpanKind::kClient);
  auto response =
      client.PostWithRetry("/swapz", "application/x-hom-model", *bytes);
  if (!response.ok()) {
    span.set_status("transport error");
    return Fail(response.status().ToString());
  }
  if (response->status != 200) {
    return Fail("swap rejected (HTTP " + std::to_string(response->status) +
                "): " + response->body);
  }
  std::fputs(response->body.c_str(), stdout);
  return 0;
}

int CmdInspect(const Args& args) {
  std::string model_path = args.Get("model", "model.hom");
  auto model = LoadHighOrderModelFromFile(model_path);
  if (!model.ok()) return Fail(model.status().ToString());

  const HighOrderClassifier& clf = **model;
  std::printf("high-order model: %s\n", model_path.c_str());
  std::printf("schema: %s\n", clf.schema()->ToString().c_str());
  std::printf("options: weight_by_prior=%d prune_prediction=%d\n",
              clf.options().weight_by_prior ? 1 : 0,
              clf.options().prune_prediction ? 1 : 0);
  const ConceptStats& stats = clf.tracker().stats();
  std::printf("%zu concepts:\n", clf.num_concepts());
  for (size_t c = 0; c < clf.num_concepts(); ++c) {
    const ConceptModel& cm = clf.concept_model(c);
    std::printf("  concept %zu: err=%.4f records=%zu Len=%.0f Freq=%.3f "
                "model=%s(%zu)\n",
                c, cm.error, cm.training_records, stats.mean_length(c),
                stats.frequency(c), cm.model->TypeTag().c_str(),
                cm.model->ComplexityHint());
  }
  return 0;
}

/// `homctl alerts [--config f.json] [--slo X] [--format pretty|json]`:
/// validates an alert rules file offline (the same loader the serving
/// commands use, so a config that prints here will load there) and shows
/// the effective pack; without --config, shows the built-in default pack
/// at the given SLO. --format json prints the canonical round-trippable
/// form, ready to edit and pass back via --alerts-config.
int CmdAlerts(const Args& args) {
  double slo = std::atof(args.Get("slo", "0.30"));
  std::vector<obs::AlertRule> rules;
  if (args.Has("config")) {
    auto loaded = obs::LoadAlertRulesFromFile(args.Get("config", ""));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    rules = std::move(*loaded);
  } else {
    rules = obs::DefaultAlertRules(slo);
  }
  std::string format = args.Get("format", "pretty");
  if (format == "json") {
    std::printf("%s\n", obs::AlertRulesToJson(rules).Dump(2).c_str());
    return 0;
  }
  if (format != "pretty") {
    return Fail("unknown --format '" + format + "' (pretty | json)");
  }
  std::printf("%zu alert rule(s)%s:\n", rules.size(),
              args.Has("config") ? "" : " (built-in default pack)");
  for (const obs::AlertRule& rule : rules) {
    std::printf("  %-26s %-4s %-14s %s %s %.4g  for=%zu resolve=%zu "
                "window=%zu\n",
                rule.name.c_str(), rule.severity.c_str(),
                std::string(obs::AlertRuleKindName(rule.kind)).c_str(),
                rule.series.c_str(),
                std::string(obs::AlertOpName(rule.op)).c_str(),
                rule.threshold, rule.for_ticks, rule.resolve_ticks,
                rule.window_ticks);
    if (!rule.description.empty()) {
      std::printf("      %s\n", rule.description.c_str());
    }
  }
  return 0;
}

/// `homctl checkpoint ckpt.homc` (or `--in ckpt.homc`): human-readable
/// digest of a serving checkpoint — does not need the model file, but
/// cannot verify the fingerprint without it (pass --model to check).
int CmdCheckpoint(const Args& args) {
  std::string in = args.Get("in", args.positional.c_str());
  if (in.empty()) return Fail("checkpoint requires a checkpoint file");
  auto ckpt = LoadCheckpointFromFile(in);
  if (!ckpt.ok()) return Fail(ckpt.status().ToString());

  std::printf("serving checkpoint: %s\n", in.c_str());
  std::printf("schema fingerprint: %08x\n", ckpt->schema_fingerprint);
  std::printf("stream offset: %llu records, %llu errors (%.5f)\n",
              static_cast<unsigned long long>(ckpt->stream_offset),
              static_cast<unsigned long long>(ckpt->num_errors),
              ckpt->stream_offset > 0
                  ? static_cast<double>(ckpt->num_errors) /
                        static_cast<double>(ckpt->stream_offset)
                  : 0.0);
  std::printf("window carry: %llu errors in %llu records\n",
              static_cast<unsigned long long>(ckpt->window_errors),
              static_cast<unsigned long long>(ckpt->window_fill));
  const HighOrderRuntimeState& rt = ckpt->runtime;
  std::printf("runtime: %zu concepts, %llu observations, %llu predictions, "
              "%llu base evaluations\n",
              rt.weights.size(),
              static_cast<unsigned long long>(rt.observations),
              static_cast<unsigned long long>(rt.predictions),
              static_cast<unsigned long long>(rt.base_evaluations));
  std::printf("runtime: top concept %lld, drift_suspected=%d, "
              "last_prediction=%d\n",
              static_cast<long long>(rt.last_top_concept),
              rt.drift_suspected ? 1 : 0, rt.last_prediction);
  for (size_t c = 0; c < rt.weights.size(); ++c) {
    std::printf("  concept %zu: prior=%.4f posterior=%.4f weight=%.4f\n", c,
                rt.prior[c], rt.posterior[c], rt.weights[c]);
  }
  std::printf("sanitizer state: %s (%zu bytes)\n",
              ckpt->sanitizer_state.empty() ? "absent" : "captured",
              ckpt->sanitizer_state.size());
  if (ckpt->concept_stats != nullptr) {
    std::printf("concept stats: %llu records, %llu switches, current "
                "concept %lld\n",
                static_cast<unsigned long long>(
                    ckpt->concept_stats->total_records()),
                static_cast<unsigned long long>(
                    ckpt->concept_stats->total_switches()),
                static_cast<long long>(ckpt->concept_stats->current_concept()));
  } else {
    std::printf("concept stats: absent\n");
  }
  if (args.Has("model")) {
    auto model = LoadHighOrderModelFromFile(args.Get("model", ""));
    if (!model.ok()) return Fail(model.status().ToString());
    auto expected = SchemaFingerprint(*(*model)->schema());
    if (!expected.ok()) return Fail(expected.status().ToString());
    if (*expected != ckpt->schema_fingerprint) {
      return Fail("fingerprint mismatch: model has " +
                  std::to_string(*expected) + ", checkpoint has " +
                  std::to_string(ckpt->schema_fingerprint));
    }
    std::printf("fingerprint matches %s\n", args.Get("model", ""));
  }
  return 0;
}

/// `homctl chaos --seed S --trials N [--dir scratch]`: self-contained
/// corruption sweep. Builds a small model and checkpoint in a scratch
/// directory, then repeatedly clobbers copies of them (bit flips,
/// truncation) and feeds the classifier mangled records. Every trial must
/// end in a clean error Status or a policy-handled record; any corrupted
/// artifact that loads successfully is a robustness bug and fails the
/// sweep. Deterministic per seed, so failures reproduce exactly.
int CmdChaos(const Args& args) {
  uint64_t seed = static_cast<uint64_t>(std::atoll(args.Get("seed", "42")));
  size_t trials = static_cast<size_t>(std::atoll(args.Get("trials", "30")));
  std::string dir = args.Get("dir", "homctl_chaos.tmp");
  ::mkdir(dir.c_str(), 0775);  // EEXIST is fine; writes below will catch ENOENT

  // Fixture: a small STAGGER model plus a checkpoint taken mid-stream.
  std::unique_ptr<StreamGenerator> gen = MakeGenerator("stagger", seed, 0);
  Dataset history = gen->Generate(3000);
  HighOrderModelBuilder builder(DecisionTree::Factory(), {});
  Rng build_rng(seed);
  auto model = builder.Build(history, &build_rng, nullptr);
  if (!model.ok()) return Fail(model.status().ToString());
  std::string model_path = dir + "/chaos_model.hom";
  if (Status st = SaveHighOrderModelToFile(model_path, **model); !st.ok()) {
    return Fail(st.ToString());
  }
  Dataset online = gen->Generate(800);
  PrequentialOptions warmup;
  PrequentialResult warm = RunPrequential(model->get(), online, warmup);
  auto ckpt = CaptureCheckpoint(**model);
  if (!ckpt.ok()) return Fail(ckpt.status().ToString());
  ckpt->stream_offset = warm.num_records;
  ckpt->num_errors = warm.num_errors;
  ckpt->window_errors = warm.window_errors_carry;
  ckpt->window_fill = warm.window_fill_carry;
  std::string ckpt_path = dir + "/chaos_ckpt.homc";
  if (Status st = SaveCheckpointToFile(ckpt_path, *ckpt); !st.ok()) {
    return Fail(st.ToString());
  }
  auto model_bytes = ReadFileToString(model_path);
  if (!model_bytes.ok()) return Fail(model_bytes.status().ToString());
  auto ckpt_bytes = ReadFileToString(ckpt_path);
  if (!ckpt_bytes.ok()) return Fail(ckpt_bytes.status().ToString());

  FaultInjector injector(seed);
  size_t rejected = 0;   // corrupted artifact -> clean error Status
  size_t handled = 0;    // mangled record -> policy-handled, no crash
  size_t tolerated = 0;  // corrupted optional checkpoint section ignored
  size_t survived = 0;   // corruption loaded fine: robustness bug
  for (size_t trial = 0; trial < trials; ++trial) {
    switch (trial % 3) {
      case 0: {  // model file corruption must never load
        if (Status st = AtomicWriteFile(model_path, *model_bytes); !st.ok()) {
          return Fail(st.ToString());
        }
        auto what = injector.rng().NextBernoulli(0.5)
                        ? injector.BitFlipFile(model_path)
                        : injector.TruncateFile(model_path);
        if (!what.ok()) return Fail(what.status().ToString());
        auto reload = LoadHighOrderModelFromFile(model_path);
        if (reload.ok()) {
          ++survived;
          std::fprintf(stderr,
                       "homctl: chaos trial %zu: model loaded after we %s\n",
                       trial, what->c_str());
        } else {
          ++rejected;
          std::printf("trial %-3zu model      %-40s -> %s\n", trial,
                      what->c_str(),
                      StatusCodeToString(reload.status().code()));
        }
        break;
      }
      case 1: {  // checkpoint corruption: error, or an ignored optional
                 // section (its payload still passed CRC) — never a crash
        if (Status st = AtomicWriteFile(ckpt_path, *ckpt_bytes); !st.ok()) {
          return Fail(st.ToString());
        }
        auto what = injector.rng().NextBernoulli(0.5)
                        ? injector.BitFlipFile(ckpt_path)
                        : injector.TruncateFile(ckpt_path);
        if (!what.ok()) return Fail(what.status().ToString());
        auto reload = LoadCheckpointFromFile(ckpt_path);
        Status outcome = reload.ok()
                             ? ApplyCheckpoint(*reload, model->get())
                             : reload.status();
        if (outcome.ok()) {
          ++tolerated;
          std::printf("trial %-3zu checkpoint %-40s -> tolerated "
                      "(optional section dropped)\n",
                      trial, what->c_str());
        } else {
          ++rejected;
          std::printf("trial %-3zu checkpoint %-40s -> %s\n", trial,
                      what->c_str(), StatusCodeToString(outcome.code()));
        }
        break;
      }
      default: {  // mangled record through Predict + ObserveLabeled
        (*model)->set_input_policy(injector.rng().NextBernoulli(0.5)
                                       ? InputPolicy::kSkip
                                       : InputPolicy::kImputeMajority);
        Record record =
            online.record(injector.rng().NextBounded(
                static_cast<uint32_t>(online.size())));
        std::string what = injector.CorruptRecord(&record);
        Label prediction = (*model)->Predict(record);
        (*model)->ObserveLabeled(record);
        ++handled;
        std::printf("trial %-3zu record     %-40s -> predicted %d\n", trial,
                    what.c_str(), prediction);
        break;
      }
    }
  }
  // Leave the pristine fixtures behind for post-mortem inspection.
  if (Status st = AtomicWriteFile(model_path, *model_bytes); !st.ok()) {
    return Fail(st.ToString());
  }
  if (Status st = AtomicWriteFile(ckpt_path, *ckpt_bytes); !st.ok()) {
    return Fail(st.ToString());
  }
  std::printf("chaos: %zu trials, %zu rejected, %zu records handled, "
              "%zu tolerated, %zu survived corruption\n",
              trials, rejected, handled, tolerated, survived);
  if (survived > 0) {
    return Fail("corrupted artifacts loaded successfully: " +
                std::to_string(survived) + " of " + std::to_string(trials));
  }
  return 0;
}

/// `homctl stats telemetry.json` (or `--in telemetry.json`): human-readable
/// digest of a schema_version-2 telemetry file (bench harness or
/// --metrics-out).
int CmdStats(const Args& args) {
  std::string in = args.Get("in", args.positional.c_str());
  if (in.empty()) return Fail("stats requires a telemetry file");
  std::ifstream file(in);
  if (!file) return Fail("cannot open " + in);
  std::ostringstream buffer;
  buffer << file.rdbuf();

  auto doc = obs::JsonValue::Parse(buffer.str());
  if (!doc.ok()) return Fail(in + ": " + doc.status().ToString());
  const obs::JsonValue* version = doc->Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Fail(in + ": missing schema_version (not a telemetry file?)");
  }

  // --format prometheus: render the metrics section through the same text
  // encoder the live /metrics endpoint uses, so saved telemetry and live
  // scrapes are byte-compatible for the same snapshot.
  std::string format = args.Get("format", "pretty");
  if (format == "prometheus") {
    const obs::JsonValue* metrics = doc->Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      return Fail(in + ": no metrics section");
    }
    auto snapshot = obs::MetricsSnapshotFromJson(*metrics);
    if (!snapshot.ok()) return Fail(in + ": " + snapshot.status().ToString());
    std::fputs(obs::EncodePrometheusText(*snapshot).c_str(), stdout);
    return 0;
  }
  if (format != "pretty") {
    return Fail("unknown --format '" + format + "' (pretty | prometheus)");
  }
  const obs::JsonValue* name = doc->Find("name");
  std::printf("telemetry: %s (schema v%.0f)\n",
              name != nullptr && name->is_string() ? name->as_string().c_str()
                                                   : "?",
              version->as_double());

  if (const obs::JsonValue* results = doc->Find("results");
      results != nullptr && results->is_array() && results->size() > 0) {
    std::printf("\nresults:\n");
    for (size_t i = 0; i < results->size(); ++i) {
      const obs::JsonValue& row = results->at(i);
      const obs::JsonValue* row_name = row.Find("name");
      std::printf("  %s\n", row_name != nullptr && row_name->is_string()
                                ? row_name->as_string().c_str()
                                : "?");
      if (const obs::JsonValue* values = row.Find("values");
          values != nullptr && values->is_object()) {
        for (const auto& [key, value] : values->members()) {
          std::printf("    %-28s %.6g\n", key.c_str(), value.as_double());
        }
      }
    }
  }

  if (const obs::JsonValue* metrics = doc->Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    if (const obs::JsonValue* counters = metrics->Find("counters");
        counters != nullptr && counters->size() > 0) {
      std::printf("\ncounters:\n");
      for (const auto& [key, value] : counters->members()) {
        std::printf("  %-40s %12.0f\n", key.c_str(), value.as_double());
      }
    }
    if (const obs::JsonValue* gauges = metrics->Find("gauges");
        gauges != nullptr && gauges->size() > 0) {
      std::printf("\ngauges:\n");
      for (const auto& [key, value] : gauges->members()) {
        std::printf("  %-40s %12.4f\n", key.c_str(), value.as_double());
      }
    }
    if (const obs::JsonValue* histograms = metrics->Find("histograms");
        histograms != nullptr && histograms->size() > 0) {
      std::printf("\nhistograms:\n");
      for (const auto& [key, value] : histograms->members()) {
        const obs::JsonValue* count = value.Find("count");
        const obs::JsonValue* sum = value.Find("sum");
        const obs::JsonValue* min = value.Find("min");
        const obs::JsonValue* max = value.Find("max");
        double n = count != nullptr ? count->as_double() : 0.0;
        std::printf("  %-40s n=%.0f mean=%.3f min=%.3f max=%.3f\n",
                    key.c_str(), n,
                    n > 0 && sum != nullptr ? sum->as_double() / n : 0.0,
                    min != nullptr ? min->as_double() : 0.0,
                    max != nullptr ? max->as_double() : 0.0);
      }
    }
  }

  if (const obs::JsonValue* phases = doc->Find("phases");
      phases != nullptr && phases->is_object()) {
    auto tree = obs::PhaseNode::FromJson(*phases);
    if (!tree.ok()) return Fail(in + ": " + tree.status().ToString());
    std::printf("\nphases:\n%s", tree->ToTreeString().c_str());
  }

  if (const obs::JsonValue* journal = doc->Find("journal");
      journal != nullptr && journal->is_object()) {
    std::printf("\njournal:\n");
    const obs::JsonValue* emitted = journal->Find("emitted");
    const obs::JsonValue* dropped = journal->Find("dropped");
    std::printf("  emitted %.0f, dropped %.0f\n",
                emitted != nullptr ? emitted->as_double() : 0.0,
                dropped != nullptr ? dropped->as_double() : 0.0);
    if (const obs::JsonValue* by_type = journal->Find("by_type");
        by_type != nullptr && by_type->is_object()) {
      for (const auto& [key, value] : by_type->members()) {
        std::printf("  %-40s %12.0f\n", key.c_str(), value.as_double());
      }
    }
  }

  if (const obs::JsonValue* stats = doc->Find("concept_stats");
      stats != nullptr && stats->is_object()) {
    std::printf("\nconcept stats:\n");
    if (const obs::JsonValue* concepts = stats->Find("concepts");
        concepts != nullptr && concepts->is_object()) {
      for (const auto& [id, entry] : concepts->members()) {
        const obs::JsonValue* activations = entry.Find("activations");
        const obs::JsonValue* records = entry.Find("records");
        const obs::JsonValue* err = entry.Find("error_rate");
        const obs::JsonValue* werr = entry.Find("windowed_error_rate");
        const obs::JsonValue* dwell = entry.Find("mean_dwell");
        std::printf("  concept %-4s activations=%-4.0f records=%-8.0f "
                    "err=%-8.5f recent_err=%-8.5f mean_dwell=%.1f\n",
                    id.c_str(),
                    activations != nullptr ? activations->as_double() : 0.0,
                    records != nullptr ? records->as_double() : 0.0,
                    err != nullptr ? err->as_double() : 0.0,
                    werr != nullptr ? werr->as_double() : 0.0,
                    dwell != nullptr ? dwell->as_double() : 0.0);
      }
    }
  }
  return 0;
}

/// One pretty line per journal event, aligned for scanning:
///   [   12]     84.3ms concept_switch   highorder    #1840  2 -> 0  w=0.81
void PrintJournalLine(const obs::Event& event) {
  std::string transition;
  if (event.from >= 0 || event.to >= 0) {
    transition = (event.from >= 0 ? std::to_string(event.from) : "?") +
                 " -> " + (event.to >= 0 ? std::to_string(event.to) : "?");
  }
  std::printf("[%6llu] %10.1fms %-16s %-18s #%-8lld %-10s v=%.4f\n",
              static_cast<unsigned long long>(event.seq),
              event.t_us / 1000.0,
              std::string(obs::EventTypeName(event.type)).c_str(),
              event.source.c_str(), static_cast<long long>(event.record),
              transition.c_str(), event.value);
}

/// `homctl tail events.jsonl [--follow]` / `homctl monitor events.jsonl`:
/// renders a --journal-out file; with --follow, keeps polling for appended
/// lines (the evaluate side flushes per event) until interrupted.
int CmdTail(const Args& args, bool follow) {
  std::string in = args.Get("in", args.positional.c_str());
  if (in.empty()) return Fail("tail requires a journal file (.jsonl)");
  follow = follow || args.Has("follow");
  std::ifstream file(in);
  if (!file && !follow) return Fail("cannot open " + in);

  size_t bad_lines = 0;
  std::string line;
  while (true) {
    while (true) {
      std::streampos line_start = file.tellg();
      if (!std::getline(file, line)) break;
      if (follow && file.eof()) {
        // The last line has no trailing newline yet: a partially flushed
        // write. Rewind and wait for the rest instead of rendering half
        // an event (and misparsing the other half on the next poll).
        file.clear();
        file.seekg(line_start);
        break;
      }
      if (line.empty()) continue;
      // A v2 journal opens with a {"journal_schema": ...} header line;
      // it frames the file, it is not an event.
      if (obs::EventJournal::IsHeaderLine(line)) continue;
      auto event = obs::EventJournal::FromJsonl(line);
      if (!event.ok()) {
        ++bad_lines;
        continue;
      }
      PrintJournalLine(*event);
    }
    // Journal consumers are often pipes (`homctl monitor j.jsonl | ...`),
    // where stdout is block-buffered; flush per drained batch so events
    // appear as they fire.
    std::fflush(stdout);
    if (!follow) break;
    // Poll for growth; reopen if the file did not exist yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    if (!file.is_open() || !file) {
      file.clear();
      if (!file.is_open()) {
        file.open(in);
        continue;
      }
    }
    file.clear();  // clear EOF so getline retries from the same offset
  }
  if (bad_lines > 0) {
    std::fprintf(stderr, "homctl: %zu malformed journal line(s) skipped\n",
                 bad_lines);
  }
  return 0;
}

/// Splits a comma-separated file list ("a.jsonl,b.jsonl"). Lists are
/// comma-joined because repeated --spans flags would overwrite each other
/// in the options map.
std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) parts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

/// Reads one --spans-out file into a ProcessTrace: the header line names
/// the process and pins the schema version; every following line is one
/// span.
Result<obs::ProcessTrace> ReadSpanFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  obs::ProcessTrace process;
  process.name = path;
  std::string line;
  bool saw_header = false;
  size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;
      HOM_ASSIGN_OR_RETURN(obs::JsonValue header, obs::JsonValue::Parse(line));
      const obs::JsonValue* schema = header.Find("span_schema");
      if (schema == nullptr || !schema->is_number()) {
        return Status::InvalidArgument(
            path + ": first line is not a span-file header "
                   "(missing span_schema)");
      }
      if (static_cast<int>(schema->as_double()) != obs::kSpanSchemaVersion) {
        return Status::InvalidArgument(
            path + ": unknown span_schema " +
            std::to_string(static_cast<int>(schema->as_double())) +
            " (this homctl knows " +
            std::to_string(obs::kSpanSchemaVersion) + ")");
      }
      if (const obs::JsonValue* name = header.Find("process");
          name != nullptr && name->is_string()) {
        process.name = name->as_string();
      }
      continue;
    }
    auto span = obs::SpanFromJsonl(line);
    if (!span.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + span.status().ToString());
    }
    process.spans.push_back(std::move(*span));
  }
  return process;
}

/// Reads one --journal-out file: the v2 header yields the wall-clock
/// epoch that anchors the events on the merged timeline (a v1 file has
/// neither, and its events can only be placed relative to the origin).
Status ReadJournalFile(const std::string& path, int64_t* epoch_unix_us,
                       std::vector<obs::Event>* events) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open " + path);
  std::string line;
  size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (lineno == 1 && obs::EventJournal::IsHeaderLine(line)) {
      HOM_ASSIGN_OR_RETURN(obs::JsonValue header, obs::JsonValue::Parse(line));
      const obs::JsonValue* schema = header.Find("journal_schema");
      if (schema == nullptr || !schema->is_number() ||
          static_cast<int>(schema->as_double()) >
              obs::kJournalSchemaVersion) {
        return Status::InvalidArgument(
            path + ": unknown journal_schema (this homctl knows up to " +
            std::to_string(obs::kJournalSchemaVersion) + ")");
      }
      if (const obs::JsonValue* epoch = header.Find("epoch_unix_us");
          epoch != nullptr && epoch->is_number()) {
        *epoch_unix_us = static_cast<int64_t>(epoch->as_double());
      }
      continue;
    }
    auto event = obs::EventJournal::FromJsonl(line);
    if (!event.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + event.status().ToString());
    }
    events->push_back(std::move(*event));
  }
  return Status::OK();
}

/// `homctl trace merge --spans primary.jsonl,standby.jsonl
///   [--journals primary_j.jsonl,standby_j.jsonl] [--out merged.json]`:
/// fuses span files (and, positionally matched, journal files — the i-th
/// journal joins the i-th span file's process; extras become their own
/// processes) from a replicated pair into one Perfetto timeline with
/// cross-process flow arrows. The output passes tools/check_trace_json.py.
int CmdTrace(const Args& args) {
  if (args.positional != "merge") {
    return Fail("usage: homctl trace merge --spans a.jsonl[,b.jsonl] "
                "[--journals x.jsonl[,y.jsonl]] [--out merged.json]");
  }
  std::vector<std::string> span_files =
      SplitCommaList(args.Get("spans", ""));
  if (span_files.empty()) {
    return Fail("trace merge requires --spans <file[,file...]>");
  }
  std::vector<obs::ProcessTrace> processes;
  size_t total_spans = 0;
  for (const std::string& path : span_files) {
    auto process = ReadSpanFile(path);
    if (!process.ok()) return Fail(process.status().ToString());
    total_spans += process->spans.size();
    processes.push_back(std::move(*process));
  }
  std::vector<std::string> journal_files =
      SplitCommaList(args.Get("journals", ""));
  size_t total_events = 0;
  for (size_t i = 0; i < journal_files.size(); ++i) {
    int64_t epoch_unix_us = 0;
    std::vector<obs::Event> events;
    if (Status st = ReadJournalFile(journal_files[i], &epoch_unix_us,
                                    &events);
        !st.ok()) {
      return Fail(st.ToString());
    }
    total_events += events.size();
    if (i < processes.size()) {
      processes[i].epoch_unix_us = epoch_unix_us;
      processes[i].events = std::move(events);
    } else {
      obs::ProcessTrace extra;
      extra.name = journal_files[i];
      extra.epoch_unix_us = epoch_unix_us;
      extra.events = std::move(events);
      processes.push_back(std::move(extra));
    }
  }
  obs::JsonValue doc = obs::MergedTraceDocument(processes);
  std::string out = args.Get("out", "merged_trace.json");
  std::ofstream file(out, std::ios::trunc);
  if (!file) return Fail("cannot open " + out);
  file << doc.Dump(2) << "\n";
  if (!file) return Fail("failed writing " + out);
  std::printf("trace merge: %zu process(es), %zu spans, %zu journal "
              "events -> %s\n",
              processes.size(), total_spans, total_events, out.c_str());
  return 0;
}

/// One homctl command: its handler, every option it reads (--verbose is
/// accepted everywhere on top), and whether it takes one bare argument.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::vector<std::string_view> options;
  bool takes_positional = false;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate", CmdGenerate, {"stream", "n", "seed", "lambda", "out"}},
      {"build",
       CmdBuild,
       {"stream", "in", "out", "seed", "threads", "metrics-out",
        "trace-out"}},
      {"evaluate",
       CmdEvaluate,
       {"model", "in", "labeled", "input-policy", "latency-sample",
        "journal-out", "metrics-out", "trace-out", "stop-after", "resume",
        "checkpoint-out", "checkpoint-every", "listen", "linger",
        "progress-every", "monitor-every", "alerts-config", "slo",
        "timeseries-retention", "calibration-every", "profile-out",
        "profile-hz"}},
      {"serve",
       CmdServe,
       {"model", "in", "passes", "listen", "input-policy", "journal-out",
        "checkpoint-out", "checkpoint-every", "progress-every",
        "monitor-every", "alerts-config", "slo", "timeseries-retention",
        "calibration-every", "profile-out", "profile-hz", "replicate-to",
        "ship-every", "primary-id", "standby", "promote-after", "replica-id",
        "spans-out", "trace-seed"}},
      {"swap", CmdSwap, {"target", "model"}},
      {"inspect", CmdInspect, {"model"}},
      {"alerts", CmdAlerts, {"config", "slo", "format"}},
      {"checkpoint", CmdCheckpoint, {"in", "model"}, true},
      {"chaos", CmdChaos, {"seed", "trials", "dir"}},
      {"stats", CmdStats, {"in", "format"}, true},
      {"tail",
       [](const Args& args) { return CmdTail(args, /*follow=*/false); },
       {"in", "follow"},
       true},
      {"monitor",
       [](const Args& args) { return CmdTail(args, /*follow=*/true); },
       {"in", "follow"},
       true},
      {"trace", CmdTrace, {"spans", "journals", "out"}, true},
  };
  return commands;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: homctl <generate|build|evaluate|serve|swap|inspect|"
               "alerts|checkpoint|chaos|stats|tail|monitor|trace> "
               "[--verbose] [--key value ...]\n"
               "  generate   --stream s --n N --seed S [--lambda L] --out "
               "f.csv\n"
               "  build      --stream s --in hist.csv --out model.hom"
               " [--seed S] [--threads N]\n"
               "             [--metrics-out m.json] [--trace-out t.json]\n"
               "  evaluate   --model model.hom --in test.csv [--labeled 0.1]"
               " [--metrics-out m.json]\n"
               "             [--journal-out e.jsonl] [--trace-out t.json]"
               " [--latency-sample N]\n"
               "             [--input-policy error|skip|impute-majority]"
               " [--stop-after N]\n"
               "             [--checkpoint-out c.homc] [--checkpoint-every N]"
               " [--resume c.homc]\n"
               "             [--listen PORT] [--progress-every N]"
               " [--linger SECONDS]\n"
               "             [--alerts-config a.json] [--slo X]"
               " [--monitor-every N]\n"
               "             [--timeseries-retention N]"
               " [--calibration-every N]\n"
               "             [--profile-out p.folded] [--profile-hz F]\n"
               "  serve      --model model.hom --in online.csv"
               " [--listen PORT] [--passes N]\n"
               "             [--progress-every N] [--journal-out e.jsonl]\n"
               "             [--checkpoint-out c.homc] [--checkpoint-every N]"
               " [--input-policy p]\n"
               "             [--alerts-config a.json] [--slo X]"
               " [--monitor-every N]\n"
               "             [--timeseries-retention N]"
               " [--calibration-every N]\n"
               "             [--profile-out p.folded] [--profile-hz F]\n"
               "             [--replicate-to host:port] [--ship-every N]"
               " [--primary-id ID]\n"
               "             [--standby] [--promote-after MS]"
               " [--replica-id ID]\n"
               "             [--spans-out spans.jsonl] [--trace-seed S]\n"
               "  swap       --target host:port --model new.hom\n"
               "  inspect    --model model.hom\n"
               "  alerts     [--config a.json] [--slo X]"
               " [--format pretty|json]\n"
               "  checkpoint c.homc [--model model.hom]\n"
               "  chaos      [--seed S] [--trials N] [--dir scratch]\n"
               "  stats      m.json [--format pretty|prometheus]\n"
               "  tail       e.jsonl [--follow]\n"
               "  monitor    e.jsonl\n"
               "  trace      merge --spans a.jsonl[,b.jsonl]"
               " [--journals x.jsonl[,y.jsonl]] [--out merged.json]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Command* command = nullptr;
  for (const Command& candidate : Commands()) {
    if (argc >= 2 && candidate.name == std::string_view(argv[1])) {
      command = &candidate;
    }
  }
  if (command == nullptr) {
    PrintUsage();
    return argc < 2 ? 1 : 2;
  }
  auto args = ParseArgs(argc, argv, command->takes_positional);
  if (!args.ok()) return Fail(args.status().ToString());
  for (const auto& [key, value] : args->options) {
    if (key != "verbose" &&
        std::find(command->options.begin(), command->options.end(), key) ==
            command->options.end()) {
      return Fail("unknown option --" + key + " for '" + command->name + "'");
    }
  }
  if (args->Has("verbose")) {
    SetLogLevel(LogLevel::kDebug);
    SetLogTimestamps(true);
  }
  return command->run(*args);
}
