#include "highorder/merge_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace hom {

void MergeQueue::RegisterCluster(int32_t id) {
  HOM_CHECK_GE(id, 0);
  if (static_cast<size_t>(id) >= live_.size()) {
    live_.resize(static_cast<size_t>(id) + 1, false);
  }
  live_[static_cast<size_t>(id)] = true;
}

void MergeQueue::Retire(int32_t id) {
  HOM_CHECK_GE(id, 0);
  HOM_CHECK_LT(static_cast<size_t>(id), live_.size());
  live_[static_cast<size_t>(id)] = false;
}

bool MergeQueue::IsLive(int32_t id) const {
  return id >= 0 && static_cast<size_t>(id) < live_.size() &&
         live_[static_cast<size_t>(id)];
}

void MergeQueue::Push(CandidateMerge candidate) {
  HOM_CHECK(IsLive(candidate.u)) << "candidate with retired cluster";
  HOM_CHECK(IsLive(candidate.v)) << "candidate with retired cluster";
  HOM_COUNTER_INC("hom.merge_queue.pushes");
  heap_.push_back(std::move(candidate));
  std::push_heap(heap_.begin(), heap_.end(), ByDistance());
}

bool MergeQueue::Pop(CandidateMerge* out) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), ByDistance());
    CandidateMerge top = std::move(heap_.back());
    heap_.pop_back();
    if (IsLive(top.u) && IsLive(top.v)) {
      HOM_COUNTER_INC("hom.merge_queue.pops");
      *out = std::move(top);
      return true;
    }
    // Lazy deletion: entries referring to retired clusters are discarded
    // on the way out instead of being rebuilt into the heap.
    HOM_COUNTER_INC("hom.merge_queue.stale_pops");
  }
  return false;
}

}  // namespace hom
