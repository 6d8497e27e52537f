#include "highorder/concept_stats.h"

#include <sstream>

#include "common/check.h"

namespace hom {

Result<ConceptStats> ConceptStats::FromOccurrences(
    const std::vector<ConceptOccurrence>& occurrences, size_t num_concepts) {
  if (num_concepts == 0) {
    return Status::InvalidArgument("need at least one concept");
  }
  if (occurrences.empty()) {
    return Status::InvalidArgument("need at least one occurrence");
  }
  std::vector<double> counts(num_concepts, 0.0);
  std::vector<double> record_totals(num_concepts, 0.0);
  for (const ConceptOccurrence& occ : occurrences) {
    if (occ.concept_id < 0 ||
        static_cast<size_t>(occ.concept_id) >= num_concepts) {
      return Status::OutOfRange("occurrence concept id " +
                                std::to_string(occ.concept_id) +
                                " out of range");
    }
    if (occ.end <= occ.begin) {
      return Status::InvalidArgument("empty occurrence");
    }
    counts[static_cast<size_t>(occ.concept_id)] += 1.0;
    record_totals[static_cast<size_t>(occ.concept_id)] +=
        static_cast<double>(occ.length());
  }

  double grand_mean = 0.0;
  double total_occ = 0.0;
  for (size_t c = 0; c < num_concepts; ++c) {
    grand_mean += record_totals[c];
    total_occ += counts[c];
  }
  grand_mean /= total_occ;

  std::vector<double> lengths(num_concepts);
  std::vector<double> freqs(num_concepts);
  for (size_t c = 0; c < num_concepts; ++c) {
    // A concept that clustering produced but that never occurs can only
    // arise from hand-built inputs; give it neutral statistics.
    lengths[c] = counts[c] > 0 ? record_totals[c] / counts[c] : grand_mean;
    freqs[c] = counts[c] / total_occ;
  }
  return ConceptStats(std::move(lengths), std::move(freqs));
}

Result<ConceptStats> ConceptStats::FromLengthsAndFrequencies(
    std::vector<double> mean_lengths, std::vector<double> frequencies) {
  if (mean_lengths.empty() || mean_lengths.size() != frequencies.size()) {
    return Status::InvalidArgument(
        "lengths and frequencies must be non-empty and equal-sized");
  }
  double freq_sum = 0.0;
  for (size_t c = 0; c < mean_lengths.size(); ++c) {
    if (mean_lengths[c] < 1.0) {
      return Status::InvalidArgument("mean length must be >= 1");
    }
    if (frequencies[c] < 0.0) {
      return Status::InvalidArgument("frequencies must be non-negative");
    }
    freq_sum += frequencies[c];
  }
  if (freq_sum <= 0.0) {
    return Status::InvalidArgument("frequencies must not all be zero");
  }
  for (double& f : frequencies) f /= freq_sum;
  return ConceptStats(std::move(mean_lengths), std::move(frequencies));
}

ConceptStats::ConceptStats(std::vector<double> lengths,
                           std::vector<double> freqs)
    : mean_lengths_(std::move(lengths)), frequencies_(std::move(freqs)) {
  BuildChi();
}

void ConceptStats::BuildChi() {
  size_t n = mean_lengths_.size();
  chi_.assign(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double len = std::max(mean_lengths_[i], 1.0);
    double leave = 1.0 / len;
    if (n == 1) {
      chi_[0] = 1.0;
      break;
    }
    chi_[i * n + i] = 1.0 - leave;
    double denom = 1.0 - frequencies_[i];
    if (denom > 1e-12) {
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        chi_[i * n + j] = leave * frequencies_[j] / denom;
      }
    } else {
      // Degenerate history: concept i is the only one ever observed.
      // Spread the leaving mass uniformly over the alternatives.
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        chi_[i * n + j] = leave / static_cast<double>(n - 1);
      }
    }
  }
}

double ConceptStats::Chi(size_t from, size_t to) const {
  HOM_CHECK_LT(from, num_concepts());
  HOM_CHECK_LT(to, num_concepts());
  return chi_[from * num_concepts() + to];
}

std::vector<double> ConceptStats::Propagate(
    const std::vector<double>& p) const {
  std::vector<double> out;
  PropagateInto(p, &out);
  return out;
}

void ConceptStats::PropagateInto(const std::vector<double>& p,
                                 std::vector<double>* out) const {
  size_t n = num_concepts();
  HOM_CHECK_EQ(p.size(), n);
  HOM_DCHECK(out != &p);
  out->assign(n, 0.0);
  double* acc = out->data();
  const double* chi = chi_.data();
  for (size_t i = 0; i < n; ++i) {
    const double pi = p[i];
    if (pi == 0.0) continue;
    const double* row = chi + i * n;
    for (size_t j = 0; j < n; ++j) acc[j] += pi * row[j];
  }
}

std::vector<double> ConceptStats::PropagateSteps(
    const std::vector<double>& p, size_t steps) const {
  size_t n = num_concepts();
  HOM_CHECK_EQ(p.size(), n);
  if (steps == 0) return p;
  // Small gaps: repeated single-step propagation is cheapest (O(k n²)).
  if (steps <= 8 || n == 1) {
    std::vector<double> out = p;
    std::vector<double> next;
    for (size_t s = 0; s < steps; ++s) {
      PropagateInto(out, &next);
      out.swap(next);
    }
    return out;
  }
  // Large gaps: χ^steps by exponentiation-by-squaring, O(n³ log k).
  std::vector<double> power = chi_;               // χ^(2^b)
  std::vector<double> acc;                        // product so far
  bool has_acc = false;
  auto multiply = [n](const std::vector<double>& a,
                      const std::vector<double>& b) {
    std::vector<double> out(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < n; ++k) {
        double aik = a[i * n + k];
        if (aik == 0.0) continue;
        for (size_t j = 0; j < n; ++j) {
          out[i * n + j] += aik * b[k * n + j];
        }
      }
    }
    return out;
  };
  size_t k = steps;
  while (k > 0) {
    if (k & 1u) {
      acc = has_acc ? multiply(acc, power) : power;
      has_acc = true;
    }
    k >>= 1u;
    if (k > 0) power = multiply(power, power);
  }
  std::vector<double> out(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (p[i] == 0.0) continue;
    for (size_t j = 0; j < n; ++j) {
      out[j] += p[i] * acc[i * n + j];
    }
  }
  return out;
}

std::string ConceptStats::ToString() const {
  std::ostringstream out;
  for (size_t c = 0; c < num_concepts(); ++c) {
    out << "concept " << c << ": Len=" << mean_lengths_[c]
        << " Freq=" << frequencies_[c] << "\n";
  }
  return out.str();
}

}  // namespace hom
