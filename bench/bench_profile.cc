// Profiling overhead bench (DESIGN.md §11): what does continuous
// profiling cost? Runs the same prequential evaluation with the profiler
// off and on (default 99 Hz) in turn, takes the median of the reps' on/off
// wall-time ratios, verifies the profile is non-empty and symbolizes into
// hom:: frames, and — as the determinism anchor the baseline gate watches —
// that profiling changes no prediction. A second row does the same for the
// per-request stage timer `homctl serve` keeps on, over the Intrusion
// stream with every record labeled. The committed baseline pins both
// overhead_ratio values, gated by bench_compare's "overhead" policy.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "classifiers/decision_tree.h"
#include "common/check.h"
#include "eval/prequential.h"
#include "highorder/builder.h"
#include "highorder/serialization.h"
#include "obs/prof.h"
#include "obs/request_timer.h"
#include "streams/intrusion.h"
#include "streams/stagger.h"

namespace {

using namespace hom;
using hom::bench::BenchReporter;
using hom::bench::PrintRule;
using hom::bench::Scale;

/// Builds a high-order model from `history` and returns its serialized
/// bytes, so every timed run can start from a fresh copy.
Result<std::string> BuildModelBytes(const Dataset& history) {
  HighOrderModelBuilder builder(DecisionTree::Factory());
  Rng rng(29);
  HOM_ASSIGN_OR_RETURN(std::unique_ptr<HighOrderClassifier> built,
                       builder.Build(history, &rng));
  std::stringstream buffer;
  HOM_RETURN_NOT_OK(SaveHighOrderModel(&buffer, *built));
  return buffer.str();
}

std::unique_ptr<HighOrderClassifier> Reload(const std::string& bytes) {
  std::stringstream buffer(bytes);
  auto model = LoadHighOrderModel(&buffer);
  HOM_CHECK(model.ok());
  return std::move(*model);
}

/// Serves `test` `passes` times through one fresh copy of the model, as
/// `homctl serve --passes` does. Returns the summed loop seconds and sets
/// `*errors` to the summed error count.
double ServePasses(const std::string& model_bytes, const Dataset& test,
                   size_t passes, const PrequentialOptions& options,
                   size_t* errors) {
  auto model = Reload(model_bytes);
  double seconds = 0.0;
  *errors = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    PrequentialResult result = RunPrequential(model.get(), test, options);
    seconds += result.seconds;
    *errors += result.num_errors;
  }
  return seconds;
}

double Median(std::vector<double> values) {
  HOM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1
             ? values[mid]
             : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

int main() {
  Scale scale = Scale::FromEnvironment();
  StaggerGenerator gen(88001);
  Dataset history = gen.Generate(scale.stagger_history);
  Dataset test = gen.Generate(scale.stagger_test);

  auto built = BuildModelBytes(history);
  if (!built.ok()) {
    std::printf("build failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const std::string model_bytes = std::move(*built);

  BenchReporter reporter("bench_profile");
  reporter.SetScale(scale);
  std::printf("== sampling profiler: cost of continuous profiling ==\n");
  PrintRule(64);

  const size_t reps = std::max<size_t>(scale.runs, 5);
  // The profiler's timer runs on process CPU time, so a window shorter
  // than its 99 Hz period takes no sample at all. One pass over the
  // reduced-scale test takes about 7 ms of CPU; four make every profiled
  // window a few periods long.
  const size_t profiled_passes = 4;
  // Each rep runs both sides back to back, alternating which goes first,
  // and the overhead is the median of the reps' on/off ratios: a shared
  // host drifts from one rep to the next by more than the profiler costs.
  // A rep takes about 60 ms, and the median of five still swung past the
  // gate in one run of fifteen, so this row takes at least 15.
  const size_t profiler_reps = std::max<size_t>(reps, 15);
  std::vector<double> off_seconds, on_seconds, ratios;
  size_t off_errors = 0, on_errors = 0;
  uint64_t total_samples = 0;
  obs::ProfileData merged;
  for (size_t rep = 0; rep < profiler_reps; ++rep) {
    double off = 0.0, on = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (rep % 2 == 0)) {
        off = ServePasses(model_bytes, test, profiled_passes, {}, &off_errors);
        continue;
      }
      Status st = obs::SamplingProfiler::Global().Start({});
      bool profiling = st.ok();
      if (!profiling) {
        std::printf("profiler unavailable: %s\n", st.ToString().c_str());
      }
      on = ServePasses(model_bytes, test, profiled_passes, {}, &on_errors);
      if (profiling) {
        obs::ProfileData window = obs::SamplingProfiler::Global().Collect();
        total_samples += window.samples.size();
        merged.MergeFrom(window);
      }
    }
    off_seconds.push_back(off);
    on_seconds.push_back(on);
    ratios.push_back(off > 0.0 ? on / off : 1.0);
  }

  double off_median = Median(off_seconds);
  double on_median = Median(on_seconds);
  double ratio = Median(ratios);
  size_t hom_frames = 0;
  for (const std::string& frame : merged.frames) {
    if (frame.find("hom::") != std::string::npos) ++hom_frames;
  }

  std::printf("%-36s %10.4f s\n", "evaluate (profiler off, median)",
              off_median);
  std::printf("%-36s %10.4f s\n", "evaluate (profiler on, median)",
              on_median);
  std::printf("%-36s %10.4f\n", "overhead ratio (median on/off)", ratio);
  std::printf("%-36s %10llu\n", "samples captured",
              static_cast<unsigned long long>(total_samples));
  std::printf("%-36s %10zu / %zu\n", "frames symbolized to hom::",
              hom_frames, merged.frames.size());

  reporter.AddValue("profiler/off", "median_seconds", off_median);
  reporter.AddValue("profiler/on", "median_seconds", on_median);
  reporter.AddValue("profiler/on", "samples",
                    static_cast<double>(total_samples));
  reporter.AddValue("profiler/on", "hom_frames",
                    static_cast<double>(hom_frames));
  reporter.AddValue("profiler/overhead", "overhead_ratio", ratio);

  // Determinism anchor: sampling must observe, never steer. Identical
  // error counts on the identical stream or the binary fails.
  std::printf("%-36s %10zu vs %zu\n", "errors (off vs on)", off_errors,
              on_errors);
  reporter.AddValue("profiler/determinism", "match",
                    off_errors == on_errors ? 1.0 : 0.0);
  if (off_errors != on_errors) {
    std::printf("PROFILING CHANGED RESULTS: %zu vs %zu errors\n", off_errors,
                on_errors);
    return 1;
  }
  // A supported platform must actually produce a symbolized profile — an
  // empty one here means frame pointers or -rdynamic regressed.
#if defined(__linux__)
  if (total_samples == 0 || hom_frames == 0) {
    std::printf("EMPTY OR UNSYMBOLIZED PROFILE (samples=%llu hom_frames=%zu)\n",
                static_cast<unsigned long long>(total_samples), hom_frames);
    return 1;
  }
#endif

  // The request timer homctl serve keeps on: time 1 request in 64 (plus
  // checkpointing records, none here) and only count the rest. Measured on
  // the stream and labeling serve-intrusion runs. The timer costs a few
  // percent of the loop, about as much as a shared host drifts from one
  // rep to the next, so each rep serves two copies of the model, one timed
  // and one not, pass by pass in turn (alternating which goes first), and
  // the overhead is the median of the reps' on/off ratios.
  IntrusionConfig intrusion_config;
  intrusion_config.lambda = scale.intrusion_lambda;
  IntrusionGenerator intrusion(88002, intrusion_config);
  Dataset intrusion_history = intrusion.Generate(scale.intrusion_history);
  Dataset intrusion_test = intrusion.Generate(scale.intrusion_test);
  auto intrusion_built = BuildModelBytes(intrusion_history);
  if (!intrusion_built.ok()) {
    std::printf("build failed: %s\n",
                intrusion_built.status().ToString().c_str());
    return 1;
  }
  const std::string intrusion_bytes = std::move(*intrusion_built);
  const size_t serve_passes = 3;
  std::vector<double> untimed_seconds, timed_seconds, timer_ratios;
  size_t untimed_errors = 0, timed_errors = 0;
  uint64_t timed_requests = 0;
  for (size_t rep = 0; rep < reps; ++rep) {
    obs::RequestTimer request_timer;
    PrequentialOptions timed_options;
    timed_options.request_timer = &request_timer;
    auto untimed_model = Reload(intrusion_bytes);
    auto timed_model = Reload(intrusion_bytes);
    double untimed = 0.0, timed = 0.0;
    for (size_t pass = 0; pass < serve_passes; ++pass) {
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == ((rep + pass) % 2 == 0)) {
          PrequentialResult result =
              RunPrequential(untimed_model.get(), intrusion_test);
          untimed += result.seconds;
          untimed_errors += result.num_errors;
        } else {
          PrequentialResult result = RunPrequential(
              timed_model.get(), intrusion_test, timed_options);
          timed += result.seconds;
          timed_errors += result.num_errors;
        }
      }
    }
    untimed_seconds.push_back(untimed);
    timed_seconds.push_back(timed);
    timer_ratios.push_back(untimed > 0.0 ? timed / untimed : 1.0);
    timed_requests = request_timer.requests();
  }
  double untimed_median = Median(untimed_seconds);
  double timed_median = Median(timed_seconds);
  double timer_ratio = Median(timer_ratios);
  std::printf("%-36s %10.4f s\n", "serve loop (timer off, median)",
              untimed_median);
  std::printf("%-36s %10.4f s\n", "serve loop (timer on, median)",
              timed_median);
  std::printf("%-36s %10.4f\n", "overhead ratio (median on/off)",
              timer_ratio);
  std::printf("%-36s %10zu vs %zu\n", "errors (off vs on)", untimed_errors,
              timed_errors);
  reporter.AddValue("request_timer/off", "median_seconds", untimed_median);
  reporter.AddValue("request_timer/on", "median_seconds", timed_median);
  reporter.AddValue("request_timer/on", "requests",
                    static_cast<double>(timed_requests));
  reporter.AddValue("request_timer/overhead", "overhead_ratio", timer_ratio);
  reporter.AddValue("request_timer/determinism", "match",
                    untimed_errors == timed_errors ? 1.0 : 0.0);
  if (untimed_errors != timed_errors) {
    std::printf("REQUEST TIMING CHANGED RESULTS: %zu vs %zu errors\n",
                untimed_errors, timed_errors);
    return 1;
  }

  if (Status st = reporter.WriteJson(); !st.ok()) {
    std::printf("telemetry write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
