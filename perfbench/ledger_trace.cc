#include "ledger_trace.h"

#include <bit>
#include <cmath>
#include <fstream>
#include <utility>

#include "obs/json.h"

namespace perfbench {

int LatencyHistogram::Bucket(uint64_t ns) {
  if (ns < (1u << kSubBits)) return static_cast<int>(ns);
  int log2 = 63 - std::countl_zero(ns);
  int sub = static_cast<int>((ns >> (log2 - kSubBits)) &
                             ((1u << kSubBits) - 1));
  return ((log2 - kSubBits + 1) << kSubBits) + sub;
}

double LatencyHistogram::LowerEdge(int bucket) {
  if (bucket < (1 << kSubBits)) return bucket;
  int log2 = (bucket >> kSubBits) + kSubBits - 1;
  int sub = bucket & ((1 << kSubBits) - 1);
  return std::ldexp((1 << kSubBits) + sub, log2 - kSubBits);
}

double LatencyHistogram::QuantileNs(double q) const {
  uint64_t total = 0;
  for (uint64_t c : counts_) total += c;
  if (total == 0) return 0.0;
  // Smallest bucket whose cumulative count reaches ceil(q * total).
  auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) return LowerEdge(b + 1);
  }
  return LowerEdge(kBuckets);
}

std::vector<std::vector<double>> LatencyHistogram::NonEmpty() const {
  std::vector<std::vector<double>> out;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    out.push_back({LowerEdge(b), LowerEdge(b + 1),
                   static_cast<double>(counts_[b])});
  }
  return out;
}

LedgerTrace::Scope::Scope(LedgerTrace* trace, std::string name)
    : trace_(trace), index_(static_cast<int>(trace->spans_.size())) {
  Span span;
  span.name = std::move(name);
  span.parent = trace->open_;
  trace->spans_.push_back(std::move(span));
  trace->open_ = index_;
  // Read the clock last so span bookkeeping stays outside the interval.
  trace->spans_[index_].start_ns = NowNs();
}

LedgerTrace::Scope::~Scope() {
  int64_t end = NowNs();
  trace_->spans_[index_].end_ns = end;
  trace_->open_ = trace_->spans_[index_].parent;
}

void LedgerTrace::AddCalls(std::string name, std::string parent, bool pool,
                           const CallStats& stats) {
  Calls c;
  c.name = std::move(name);
  c.parent = std::move(parent);
  c.pool = pool;
  c.calls = stats.calls.load();
  c.items = stats.items.load();
  c.busy_ns = stats.busy_ns.load();
  calls_.push_back(std::move(c));
}

void LedgerTrace::AddLatency(std::string name, std::string parent,
                             const LatencyStats& stats) {
  Calls c;
  c.name = std::move(name);
  c.parent = std::move(parent);
  c.calls = stats.calls;
  c.busy_ns = stats.busy_ns;
  c.histogram = &stats.histogram;
  calls_.push_back(std::move(c));
}

hom::Status LedgerTrace::WriteJson(const std::string& path) const {
  using hom::obs::JsonValue;
  JsonValue doc = JsonValue::Object();
  JsonValue spans = JsonValue::Array();
  for (const Span& s : spans_) {
    JsonValue j = JsonValue::Object();
    j.Set("name", s.name);
    j.Set("parent", s.parent);
    j.Set("start_ns", s.start_ns);
    j.Set("end_ns", s.end_ns);
    spans.Append(std::move(j));
  }
  doc.Set("spans", std::move(spans));
  JsonValue calls = JsonValue::Array();
  for (const Calls& c : calls_) {
    JsonValue j = JsonValue::Object();
    j.Set("name", c.name);
    j.Set("parent", c.parent);
    j.Set("thread", c.pool ? "pool" : "caller");
    j.Set("calls", c.calls);
    j.Set("items", c.items);
    j.Set("busy_ns", c.busy_ns);
    if (c.histogram != nullptr) {
      j.Set("p99_ns", c.histogram->QuantileNs(0.99));
      JsonValue buckets = JsonValue::Array();
      for (const auto& b : c.histogram->NonEmpty()) {
        JsonValue row = JsonValue::Array();
        for (double v : b) row.Append(v);
        buckets.Append(std::move(row));
      }
      j.Set("histogram", std::move(buckets));
    }
    calls.Append(std::move(j));
  }
  doc.Set("calls", std::move(calls));
  JsonValue values = JsonValue::Object();
  for (const auto& [name, value] : values_) values.Set(name, value);
  doc.Set("values", std::move(values));

  std::ofstream out(path, std::ios::trunc);
  out << doc.Dump(1) << "\n";
  if (!out) return hom::Status::Internal("failed writing " + path);
  return hom::Status::OK();
}

}  // namespace perfbench
