// Decorators that time calls into the classifiers and highorder layers
// through their public interfaces. Each forwards every virtual unchanged,
// so a model built or served through them behaves, and serializes,
// exactly like the undecorated one.

#ifndef PERFBENCH_TIMED_CLASSIFIERS_H_
#define PERFBENCH_TIMED_CLASSIFIERS_H_

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classifiers/classifier.h"
#include "eval/stream_classifier.h"
#include "ledger_trace.h"

namespace perfbench {

/// Counters shared by every TimedClassifier of one build, split by
/// whether the call ran on the thread that called Build (`caller`) or on
/// a thread-pool worker (`pool`).
struct ClassifierCalls {
  explicit ClassifierCalls(std::thread::id caller_thread)
      : caller_thread(caller_thread) {}

  std::thread::id caller_thread;
  CallStats train_caller, train_pool;
  CallStats predict_caller, predict_pool;

  bool OnCaller() const { return std::this_thread::get_id() == caller_thread; }
};

/// Classifier decorator: times Train and every predict entry point.
class TimedClassifier : public hom::Classifier {
 public:
  TimedClassifier(std::unique_ptr<hom::Classifier> inner,
                  ClassifierCalls* calls)
      : inner_(std::move(inner)), calls_(calls) {}

  hom::Status Train(const hom::DatasetView& data) override {
    int64_t start = NowNs();
    hom::Status st = inner_->Train(data);
    int64_t ns = NowNs() - start;
    (calls_->OnCaller() ? calls_->train_caller : calls_->train_pool)
        .Record(ns, data.size());
    return st;
  }
  hom::Label Predict(const hom::Record& record) const override {
    int64_t start = NowNs();
    hom::Label label = inner_->Predict(record);
    RecordPredict(NowNs() - start);
    return label;
  }
  std::vector<double> PredictProba(const hom::Record& record) const override {
    int64_t start = NowNs();
    std::vector<double> proba = inner_->PredictProba(record);
    RecordPredict(NowNs() - start);
    return proba;
  }
  void PredictProbaInto(const hom::Record& record,
                        std::vector<double>* proba) const override {
    int64_t start = NowNs();
    inner_->PredictProbaInto(record, proba);
    RecordPredict(NowNs() - start);
  }
  const hom::CompiledTree* compiled() const override {
    return inner_->compiled();
  }
  void EnsureCompiled() override { inner_->EnsureCompiled(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  size_t ComplexityHint() const override { return inner_->ComplexityHint(); }
  std::string TypeTag() const override { return inner_->TypeTag(); }
  hom::Status SaveTo(hom::BinaryWriter* writer) const override {
    return inner_->SaveTo(writer);
  }

 private:
  void RecordPredict(int64_t ns) const {
    (calls_->OnCaller() ? calls_->predict_caller : calls_->predict_pool)
        .Record(ns);
  }

  std::unique_ptr<hom::Classifier> inner_;
  ClassifierCalls* calls_;
};

/// Wraps a ClassifierFactory so every classifier it makes is timed.
inline hom::ClassifierFactory TimedFactory(hom::ClassifierFactory inner,
                                           ClassifierCalls* calls) {
  return [inner = std::move(inner), calls](const hom::SchemaPtr& schema)
             -> std::unique_ptr<hom::Classifier> {
    return std::make_unique<TimedClassifier>(inner(schema), calls);
  };
}

/// Per-record calls the prequential loop makes into the served model.
struct StreamCalls {
  LatencyStats predict;
  LatencyStats observe;
  LatencyStats proba;  ///< sampled calibration distributions
};

/// StreamClassifier decorator handed to RunPrequential in place of the
/// served model.
class TimedStreamClassifier : public hom::StreamClassifier {
 public:
  TimedStreamClassifier(hom::StreamClassifier* inner, StreamCalls* calls)
      : inner_(inner), calls_(calls) {}

  hom::Label Predict(const hom::Record& x) override {
    int64_t start = NowNs();
    hom::Label label = inner_->Predict(x);
    calls_->predict.Record(NowNs() - start);
    return label;
  }
  std::vector<double> PredictProba(const hom::Record& x) override {
    int64_t start = NowNs();
    std::vector<double> proba = inner_->PredictProba(x);
    calls_->proba.Record(NowNs() - start);
    return proba;
  }
  void PredictProbaInto(const hom::Record& x,
                        std::vector<double>* proba) override {
    int64_t start = NowNs();
    inner_->PredictProbaInto(x, proba);
    calls_->proba.Record(NowNs() - start);
  }
  void ObserveLabeled(const hom::Record& y) override {
    int64_t start = NowNs();
    inner_->ObserveLabeled(y);
    calls_->observe.Record(NowNs() - start);
  }
  std::string name() const override { return inner_->name(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  int64_t ActiveConcept() const override { return inner_->ActiveConcept(); }

 private:
  hom::StreamClassifier* inner_;
  StreamCalls* calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_CLASSIFIERS_H_
