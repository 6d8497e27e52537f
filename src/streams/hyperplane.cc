#include "streams/hyperplane.h"

#include <string>
#include <utility>

#include "common/check.h"

namespace hom {

namespace {
constexpr Label kNegative = 0;
constexpr Label kPositive = 1;
}  // namespace

HyperplaneGenerator::HyperplaneGenerator(uint64_t seed,
                                         HyperplaneConfig config)
    : config_(config),
      rng_(seed),
      schedule_(config.num_concepts, config.lambda, config.zipf_z) {
  HOM_CHECK_GE(config_.dims, 1u);
  HOM_CHECK_GE(config_.num_concepts, 2u);
  HOM_CHECK_GE(config_.drift_steps_max, config_.drift_steps_min);
  HOM_CHECK_GE(config_.drift_steps_min, 1u);

  std::vector<Attribute> attrs;
  for (size_t i = 0; i < config_.dims; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    attrs.push_back(Attribute::Numeric(std::move(name)));
  }
  schema_ = Schema::Make(std::move(attrs), {"negative", "positive"})
                .ValueOrDie();

  // Each concept is a random hyperplane; weights uniform in [0, 1] (with the
  // threshold pinned at half the weight mass, Section IV-A).
  weights_.resize(config_.num_concepts);
  for (auto& w : weights_) {
    w.resize(config_.dims);
    for (double& wi : w) wi = rng_.NextDouble();
  }
  active_ = weights_[0];
}

const std::vector<double>& HyperplaneGenerator::concept_weights(int c) const {
  HOM_CHECK_GE(c, 0);
  HOM_CHECK_LT(static_cast<size_t>(c), weights_.size());
  return weights_[static_cast<size_t>(c)];
}

Label HyperplaneGenerator::LabelFor(const std::vector<double>& x,
                                    const std::vector<double>& w) {
  HOM_CHECK_EQ(x.size(), w.size());
  double sum = 0.0;
  double threshold = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sum += w[i] * x[i];
    threshold += w[i];
  }
  threshold *= 0.5;
  return sum >= threshold ? kPositive : kNegative;
}

Record HyperplaneGenerator::Next() {
  if (drift_remaining_ > 0) {
    // Mid-drift: keep interpolating, no new change can fire.
    --drift_remaining_;
    const std::vector<double>& target =
        weights_[static_cast<size_t>(schedule_.current())];
    double progress = drift_total_ > 0
                          ? 1.0 - static_cast<double>(drift_remaining_) /
                                      static_cast<double>(drift_total_)
                          : 1.0;
    for (size_t i = 0; i < active_.size(); ++i) {
      active_[i] = drift_from_[i] + progress * (target[i] - drift_from_[i]);
    }
  } else if (schedule_.Step(&rng_)) {
    // A change fired: start drifting from the current plane to the new
    // concept's plane.
    drift_from_ = active_;
    drift_total_ = config_.drift_steps_min +
                   rng_.NextBounded(static_cast<uint32_t>(
                       config_.drift_steps_max - config_.drift_steps_min + 1));
    drift_remaining_ = drift_total_;
  }

  Record record;
  record.values.resize(config_.dims);
  for (double& v : record.values) v = rng_.NextDouble();
  record.label = LabelFor(record.values, active_);
  if (config_.noise > 0.0 && rng_.NextBernoulli(config_.noise)) {
    record.label = record.label == kPositive ? kNegative : kPositive;
  }
  return record;
}

}  // namespace hom
