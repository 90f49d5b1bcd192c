#include "metered_store.h"

#include "columnar/ndp.h"
#include "spans.h"

namespace perfbench {
namespace {

const char* const kSpanNames[kNumStoreOps] = {
    "store.get", "store.read_range", "store.put",
    "store.list", "store.delete",    "store.scan"};

}  // namespace

StoreCounts StoreCounts::Minus(const StoreCounts& base) const {
  StoreCounts d;
  for (int i = 0; i < kNumStoreOps; ++i) {
    d.calls[i] = calls[i] - base.calls[i];
    d.bytes[i] = bytes[i] - base.bytes[i];
    d.busy_us[i] = busy_us[i] - base.busy_us[i];
  }
  d.data_puts = data_puts - base.data_puts;
  d.data_put_bytes = data_put_bytes - base.data_put_bytes;
  return d;
}

void StoreCounts::Add(const StoreCounts& other) {
  for (int i = 0; i < kNumStoreOps; ++i) {
    calls[i] += other.calls[i];
    bytes[i] += other.bytes[i];
    busy_us[i] += other.busy_us[i];
  }
  data_puts += other.data_puts;
  data_put_bytes += other.data_put_bytes;
}

void MeteredStore::Record(StoreOp op, uint64_t bytes, int64_t busy_us) {
  const int i = static_cast<int>(op);
  calls_[i].fetch_add(1, std::memory_order_relaxed);
  bytes_[i].fetch_add(bytes, std::memory_order_relaxed);
  busy_us_[i].fetch_add(busy_us, std::memory_order_relaxed);
}

eon::Status MeteredStore::Put(const std::string& key,
                              const std::string& data) {
  ScopedSpan span(kSpanNames[static_cast<int>(StoreOp::kPut)]);
  const int64_t t0 = NowMicros();
  eon::Status s = base_->Put(key, data);
  Record(StoreOp::kPut, data.size(), NowMicros() - t0);
  if (key.rfind("wal/", 0) != 0) {
    data_puts_.fetch_add(1, std::memory_order_relaxed);
    data_put_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  }
  return s;
}

eon::Result<std::string> MeteredStore::Get(const std::string& key) {
  ScopedSpan span(kSpanNames[static_cast<int>(StoreOp::kGet)]);
  const int64_t t0 = NowMicros();
  eon::Result<std::string> r = base_->Get(key);
  Record(StoreOp::kGet, r.ok() ? r.value().size() : 0, NowMicros() - t0);
  return r;
}

eon::Result<std::string> MeteredStore::ReadRange(const std::string& key,
                                                 uint64_t offset,
                                                 uint64_t len) {
  ScopedSpan span(kSpanNames[static_cast<int>(StoreOp::kReadRange)]);
  const int64_t t0 = NowMicros();
  eon::Result<std::string> r = base_->ReadRange(key, offset, len);
  Record(StoreOp::kReadRange, r.ok() ? r.value().size() : 0,
         NowMicros() - t0);
  return r;
}

eon::Result<std::vector<eon::ObjectMeta>> MeteredStore::List(
    const std::string& prefix) {
  ScopedSpan span(kSpanNames[static_cast<int>(StoreOp::kList)]);
  const int64_t t0 = NowMicros();
  auto r = base_->List(prefix);
  Record(StoreOp::kList, 0, NowMicros() - t0);
  return r;
}

eon::Status MeteredStore::Delete(const std::string& key) {
  ScopedSpan span(kSpanNames[static_cast<int>(StoreOp::kDelete)]);
  const int64_t t0 = NowMicros();
  eon::Status s = base_->Delete(key);
  Record(StoreOp::kDelete, 0, NowMicros() - t0);
  return s;
}

eon::Status MeteredStore::ScanObject(const eon::ScanObjectRequest& request,
                                     eon::ScanObjectResponse* response) {
  ScopedSpan span(kSpanNames[static_cast<int>(StoreOp::kScan)]);
  const int64_t t0 = NowMicros();
  eon::Status s = base_->ScanObject(request, response);
  Record(StoreOp::kScan, s.ok() ? response->response_bytes : 0,
         NowMicros() - t0);
  return s;
}

StoreCounts MeteredStore::counts() const {
  StoreCounts c;
  for (int i = 0; i < kNumStoreOps; ++i) {
    c.calls[i] = calls_[i].load(std::memory_order_relaxed);
    c.bytes[i] = bytes_[i].load(std::memory_order_relaxed);
    c.busy_us[i] = busy_us_[i].load(std::memory_order_relaxed);
  }
  c.data_puts = data_puts_.load(std::memory_order_relaxed);
  c.data_put_bytes = data_put_bytes_.load(std::memory_order_relaxed);
  return c;
}

int64_t PhaseClock::NowMicros() const {
  return perfbench::NowMicros() + offset_us_.load(std::memory_order_relaxed);
}

void PhaseClock::AdvanceMicros(int64_t micros) {
  if (micros <= 0) return;
  if (sleeping_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  } else {
    offset_us_.fetch_add(micros, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
