#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
thread_local uint64_t tl_open_span = 0;
thread_local uint64_t tl_query_id = 0;

}  // namespace

int64_t NowMicros() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool SpanRecorder::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void SpanRecorder::Add(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.swap(spans_);
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path,
                                  const std::vector<SpanRecord>& spans) const {
  FILE* fp = fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  for (const SpanRecord& s : spans) {
    fprintf(fp,
            "{\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,\"id\":%llu,"
            "\"parent\":%llu,\"query_id\":%llu}\n",
            s.name, static_cast<long long>(s.start_us),
            static_cast<long long>(s.end_us),
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.query_id));
  }
  return fclose(fp) == 0;
}

std::map<std::string, int64_t> SelfMicrosByName(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<int64_t> covered(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = spans[it->second];
    const int64_t lo = std::max(s.start_us, p.start_us);
    const int64_t hi = std::min(s.end_us, p.end_us);
    if (hi > lo) covered[it->second] += hi - lo;
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end_us - spans[i].start_us;
    self[spans[i].name] += std::max<int64_t>(0, dur - covered[i]);
  }
  return self;
}

std::map<std::string, int64_t> TotalMicrosByName(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, int64_t> total;
  for (const SpanRecord& s : spans) total[s.name] += s.end_us - s.start_us;
  return total;
}

std::map<std::string, uint64_t> CountByName(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, uint64_t> count;
  for (const SpanRecord& s : spans) count[s.name]++;
  return count;
}

void SetThreadQueryId(uint64_t query_id) { tl_query_id = query_id; }

ScopedSpan::ScopedSpan(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = tl_open_span;
  rec_.query_id = tl_query_id;
  saved_parent_ = tl_open_span;
  tl_open_span = rec_.id;
  rec_.start_us = NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  rec_.end_us = NowMicros();
  tl_open_span = saved_parent_;
  SpanRecorder::Get().Add(rec_);
}

}  // namespace perfbench
