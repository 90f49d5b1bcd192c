// ObjectStore decorator that times and counts every call it forwards to
// the shared storage it wraps. The cluster is handed this store, so every
// request the program makes to shared storage passes through it; its
// counts are the benchmark's own, independent of the program's counters.

#ifndef EON_PERFBENCH_METERED_STORE_H_
#define EON_PERFBENCH_METERED_STORE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "common/clock.h"
#include "storage/object_store.h"

namespace perfbench {

enum class StoreOp : int { kGet = 0, kReadRange, kPut, kList, kDelete, kScan };
inline constexpr int kNumStoreOps = 6;

/// Point-in-time copy of the decorator's counters.
struct StoreCounts {
  uint64_t calls[kNumStoreOps] = {};
  /// Payload bytes: returned bytes for Get/ReadRange, response bytes for
  /// ScanObject, written bytes for Put.
  uint64_t bytes[kNumStoreOps] = {};
  int64_t busy_us[kNumStoreOps] = {};
  /// Puts and put bytes outside the write-ahead log ("wal/" keys).
  uint64_t data_puts = 0;
  uint64_t data_put_bytes = 0;

  uint64_t reads() const {
    return calls[static_cast<int>(StoreOp::kGet)] +
           calls[static_cast<int>(StoreOp::kReadRange)];
  }
  uint64_t read_bytes() const {
    return bytes[static_cast<int>(StoreOp::kGet)] +
           bytes[static_cast<int>(StoreOp::kReadRange)] +
           bytes[static_cast<int>(StoreOp::kScan)];
  }
  uint64_t requests() const {
    uint64_t n = 0;
    for (uint64_t c : calls) n += c;
    return n;
  }
  uint64_t of(StoreOp op) const { return calls[static_cast<int>(op)]; }
  uint64_t bytes_of(StoreOp op) const { return bytes[static_cast<int>(op)]; }
  int64_t busy_of(StoreOp op) const { return busy_us[static_cast<int>(op)]; }

  StoreCounts Minus(const StoreCounts& base) const;
  void Add(const StoreCounts& other);
};

class MeteredStore : public eon::ObjectStore {
 public:
  explicit MeteredStore(eon::ObjectStore* base) : base_(base) {}

  eon::Status Put(const std::string& key, const std::string& data) override;
  eon::Result<std::string> Get(const std::string& key) override;
  eon::Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                     uint64_t len) override;
  eon::Result<std::vector<eon::ObjectMeta>> List(
      const std::string& prefix) override;
  eon::Status Delete(const std::string& key) override;
  eon::Status ScanObject(const eon::ScanObjectRequest& request,
                         eon::ScanObjectResponse* response) override;
  /// The wrapped store's own counters, unchanged: the program's profile
  /// deltas are computed from these, the benchmark's from counts().
  eon::ObjectStoreMetrics metrics() const override { return base_->metrics(); }

  StoreCounts counts() const;

 private:
  void Record(StoreOp op, uint64_t bytes, int64_t busy_us);

  eon::ObjectStore* base_;
  std::atomic<uint64_t> calls_[kNumStoreOps] = {};
  std::atomic<uint64_t> bytes_[kNumStoreOps] = {};
  std::atomic<int64_t> busy_us_[kNumStoreOps] = {};
  std::atomic<uint64_t> data_puts_{0};
  std::atomic<uint64_t> data_put_bytes_{0};
};

/// Clock for a store whose modeled latency should cost real time only in
/// the measured phase: while `sleeping` is off, AdvanceMicros moves a
/// private offset (like a SimClock); once on, it sleeps (like a
/// WallClock). NowMicros is steady time plus the offset, so it never goes
/// backwards across the switch.
class PhaseClock : public eon::Clock {
 public:
  int64_t NowMicros() const override;
  void AdvanceMicros(int64_t micros) override;
  void set_sleeping(bool on) { sleeping_.store(on); }

 private:
  std::atomic<bool> sleeping_{false};
  std::atomic<int64_t> offset_us_{0};
};

}  // namespace perfbench

#endif  // EON_PERFBENCH_METERED_STORE_H_
