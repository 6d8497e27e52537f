// In-memory trace of one replica run: spans for coarse calls into the
// library's layers, and per-call aggregates (count, busy time, latency
// histogram) for the calls that happen once per record or per training.
// Nothing is written until the run ends (WriteJson).

#ifndef PERFBENCH_LEDGER_TRACE_H_
#define PERFBENCH_LEDGER_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fixed-bucket latency histogram with 8 buckets per power of two of
/// nanoseconds (about 9% resolution). Not thread-safe.
class LatencyHistogram {
 public:
  void Add(uint64_t ns) { ++counts_[Bucket(ns)]; }

  /// Upper edge of the bucket holding the q-quantile; 0 when empty.
  double QuantileNs(double q) const;

  /// Non-empty buckets as [[lower_ns, upper_ns, count], ...].
  std::vector<std::vector<double>> NonEmpty() const;

 private:
  static constexpr int kSubBits = 3;
  static constexpr int kBuckets = 64 << kSubBits;
  static int Bucket(uint64_t ns);
  static double LowerEdge(int bucket);

  uint64_t counts_[kBuckets] = {};
};

/// Aggregate of one kind of call. Counters are atomic so classifier calls
/// made on thread-pool workers can share it; the histogram is only fed by
/// single-threaded callers (RecordWithLatency).
struct CallStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> items{0};  ///< e.g. records a training call saw
  std::atomic<uint64_t> busy_ns{0};

  void Record(int64_t ns, uint64_t n_items = 0) {
    calls.fetch_add(1, std::memory_order_relaxed);
    items.fetch_add(n_items, std::memory_order_relaxed);
    busy_ns.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
  }
};

/// Single-threaded per-record aggregate with a latency histogram.
struct LatencyStats {
  uint64_t calls = 0;
  uint64_t busy_ns = 0;
  LatencyHistogram histogram;

  void Record(int64_t ns) {
    ++calls;
    busy_ns += static_cast<uint64_t>(ns);
    histogram.Add(static_cast<uint64_t>(ns));
  }
};

/// The whole trace of one replica run. Spans are opened and closed on the
/// calling thread only.
class LedgerTrace {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(), -1 for the root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// RAII span: a child of the innermost open span.
  class Scope {
   public:
    Scope(LedgerTrace* trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LedgerTrace* trace_;
    int index_;
  };

  /// Registers a per-call aggregate whose calls run inside spans named
  /// `parent`. `pool` marks calls made on thread-pool workers: they
  /// overlap the calling thread's timeline and stay out of its ledger.
  void AddCalls(std::string name, std::string parent, bool pool,
                const CallStats& stats);
  /// As AddCalls, for calling-thread calls with a histogram; `stats` must
  /// outlive WriteJson().
  void AddLatency(std::string name, std::string parent,
                  const LatencyStats& stats);

  /// A named number (counts, sizes) reported beside the timings.
  void SetValue(const std::string& name, double value) {
    values_[name] = value;
  }

  /// Writes spans, aggregates and values as one JSON document.
  hom::Status WriteJson(const std::string& path) const;

 private:
  struct Calls {
    std::string name;
    std::string parent;
    bool pool = false;
    uint64_t calls = 0;
    uint64_t items = 0;
    uint64_t busy_ns = 0;
    const LatencyHistogram* histogram = nullptr;
  };

  std::vector<Span> spans_;
  int open_ = -1;
  std::vector<Calls> calls_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_TRACE_H_
