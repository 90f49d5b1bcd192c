// Unit tests for the LRU file cache: residency, eviction, shaping
// policies, peer warming (Section 5.2).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cache/file_cache.h"

namespace eon {
namespace {

class FileCacheTest : public ::testing::Test {
 protected:
  FileCacheTest() {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          store_.Put("f" + std::to_string(i), std::string(100, 'a' + i)).ok());
    }
  }

  FileCache MakeCache(uint64_t capacity) {
    CacheOptions opts;
    opts.capacity_bytes = capacity;
    return FileCache(opts, &store_);
  }

  MemObjectStore store_;
};

TEST_F(FileCacheTest, MissFillsThenHits) {
  FileCache cache = MakeCache(1000);
  auto first = cache.Fetch("f0");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  auto second = cache.Fetch("f0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(*second, std::string(100, 'a'));
  // Only the miss touched shared storage.
  EXPECT_EQ(store_.metrics().gets, 1u);
}

TEST_F(FileCacheTest, LruEvictionOrder) {
  FileCache cache = MakeCache(300);  // Fits 3 files.
  for (const char* k : {"f0", "f1", "f2"}) ASSERT_TRUE(cache.Fetch(k).ok());
  ASSERT_TRUE(cache.Fetch("f0").ok());  // f0 now most recent.
  ASSERT_TRUE(cache.Fetch("f3").ok());  // Evicts f1 (least recent).
  EXPECT_TRUE(cache.Contains("f0"));
  EXPECT_FALSE(cache.Contains("f1"));
  EXPECT_TRUE(cache.Contains("f2"));
  EXPECT_TRUE(cache.Contains("f3"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(FileCacheTest, WriteThroughInsert) {
  FileCache cache = MakeCache(1000);
  ASSERT_TRUE(cache.Insert("new_file", "fresh data").ok());
  EXPECT_TRUE(cache.Contains("new_file"));
  // Served from cache even though shared storage never saw it.
  auto got = cache.Fetch("new_file");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "fresh data");
}

TEST_F(FileCacheTest, NeverCachePolicy) {
  FileCache cache = MakeCache(1000);
  cache.SetPolicy("f", CachePolicy::kNeverCache);
  ASSERT_TRUE(cache.Fetch("f0").ok());
  EXPECT_FALSE(cache.Contains("f0"));
  ASSERT_TRUE(cache.Insert("f9", "x").ok());
  EXPECT_FALSE(cache.Contains("f9"));
}

TEST_F(FileCacheTest, PinPolicySurvivesEviction) {
  FileCache cache = MakeCache(300);
  cache.SetPolicy("f0", CachePolicy::kPin);
  for (const char* k : {"f0", "f1", "f2"}) ASSERT_TRUE(cache.Fetch(k).ok());
  // Stream f3..f6 through: f0 stays pinned, others churn.
  for (const char* k : {"f3", "f4", "f5", "f6"}) {
    ASSERT_TRUE(cache.Fetch(k).ok());
  }
  EXPECT_TRUE(cache.Contains("f0"));
}

TEST_F(FileCacheTest, BypassServesHitsButDoesNotFill) {
  FileCache cache = MakeCache(1000);
  auto miss = cache.FetchBypass("f0");
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(cache.Contains("f0"));  // "don't use the cache for this query"
  ASSERT_TRUE(cache.Fetch("f0").ok());
  auto hit = cache.FetchBypass("f0");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(FileCacheTest, DropAndDropPrefix) {
  FileCache cache = MakeCache(10000);
  ASSERT_TRUE(cache.Insert("data/x_c0", "a").ok());
  ASSERT_TRUE(cache.Insert("data/x_c1", "b").ok());
  ASSERT_TRUE(cache.Insert("data/y_c0", "c").ok());
  cache.Drop("data/x_c0");
  EXPECT_FALSE(cache.Contains("data/x_c0"));
  EXPECT_TRUE(cache.Contains("data/x_c1"));
  cache.DropPrefix("data/x");
  EXPECT_FALSE(cache.Contains("data/x_c1"));
  EXPECT_TRUE(cache.Contains("data/y_c0"));
  cache.Drop("data/never_there");  // Idempotent.
}

TEST_F(FileCacheTest, MostRecentlyUsedWithinBudget) {
  FileCache cache = MakeCache(10000);
  for (const char* k : {"f0", "f1", "f2", "f3"}) {
    ASSERT_TRUE(cache.Fetch(k).ok());
  }
  // MRU order: f3, f2, f1, f0; budget for 2 files of 100 bytes.
  auto mru = cache.MostRecentlyUsed(250);
  ASSERT_EQ(mru.size(), 2u);
  EXPECT_EQ(mru[0], "f3");
  EXPECT_EQ(mru[1], "f2");
}

TEST_F(FileCacheTest, PeerWarmingMirrorsPeer) {
  FileCache peer = MakeCache(10000);
  for (const char* k : {"f0", "f1", "f2"}) ASSERT_TRUE(peer.Fetch(k).ok());

  FileCache fresh = MakeCache(10000);
  PeerCacheFetcher peer_view(&peer);
  std::vector<std::string> mru = peer.MostRecentlyUsed(10000);
  ASSERT_TRUE(fresh.WarmFrom(mru, &peer_view).ok());
  for (const char* k : {"f0", "f1", "f2"}) {
    EXPECT_TRUE(fresh.Contains(k)) << k;
  }
  // Warming pulled from the peer, not shared storage (3 initial misses
  // were the only storage reads).
  EXPECT_EQ(store_.metrics().gets, 3u);
  // And preserved recency: f2 was the peer's most recent.
  auto order = fresh.MostRecentlyUsed(150);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "f2");
}

TEST_F(FileCacheTest, WarmingSkipsEvictedPeerFiles) {
  FileCache peer = MakeCache(10000);
  ASSERT_TRUE(peer.Fetch("f0").ok());
  FileCache fresh = MakeCache(10000);
  PeerCacheFetcher peer_view(&peer);
  // Ask for a file the peer no longer holds: skipped, not an error.
  ASSERT_TRUE(fresh.WarmFrom({"f0", "f5"}, &peer_view).ok());
  EXPECT_TRUE(fresh.Contains("f0"));
  EXPECT_FALSE(fresh.Contains("f5"));
}

TEST_F(FileCacheTest, OversizedObjectNotCached) {
  FileCache cache = MakeCache(50);  // Smaller than any file.
  ASSERT_TRUE(cache.Fetch("f0").ok());
  EXPECT_FALSE(cache.Contains("f0"));
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST_F(FileCacheTest, ClearEmptiesEverything) {
  FileCache cache = MakeCache(10000);
  ASSERT_TRUE(cache.Fetch("f0").ok());
  ASSERT_TRUE(cache.Fetch("f1").ok());
  cache.Clear();
  EXPECT_EQ(cache.file_count(), 0u);
  EXPECT_EQ(cache.size_bytes(), 0u);
}

TEST_F(FileCacheTest, StatsHitRate) {
  FileCache cache = MakeCache(10000);
  ASSERT_TRUE(cache.Fetch("f0").ok());
  ASSERT_TRUE(cache.Fetch("f0").ok());
  ASSERT_TRUE(cache.Fetch("f0").ok());
  ASSERT_TRUE(cache.Fetch("f1").ok());
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 0.5);
}

// Regression: a file held by an outstanding FetchRef reader must not be
// evicted mid-scan, no matter how much eviction pressure builds up.
TEST_F(FileCacheTest, EvictionSkipsFilesHeldByReaders) {
  FileCache cache = MakeCache(300);  // Fits 3 files.
  Result<FileRef> held = cache.FetchRef("f0");
  ASSERT_TRUE(held.ok());
  EXPECT_EQ(cache.pinned_refs(), 1u);
  // Stream enough files through to evict everything unpinned twice over.
  for (const char* k : {"f1", "f2", "f3", "f4", "f5", "f6"}) {
    ASSERT_TRUE(cache.Fetch(k).ok());
  }
  EXPECT_TRUE(cache.Contains("f0"));
  EXPECT_EQ(**held, std::string(100, 'a'));
  // Releasing the ref makes f0 ordinary LRU prey again.
  held->reset();
  EXPECT_EQ(cache.pinned_refs(), 0u);
  for (const char* k : {"f7", "f8", "f9"}) ASSERT_TRUE(cache.Fetch(k).ok());
  EXPECT_FALSE(cache.Contains("f0"));
}

TEST_F(FileCacheTest, RefStaysValidAfterDrop) {
  FileCache cache = MakeCache(1000);
  Result<FileRef> held = cache.FetchRef("f2");
  ASSERT_TRUE(held.ok());
  cache.Drop("f2");
  EXPECT_FALSE(cache.Contains("f2"));
  // The entry is gone but the bytes live until the last reader lets go.
  EXPECT_EQ(**held, std::string(100, 'c'));
  held->reset();
  EXPECT_EQ(cache.pinned_refs(), 0u);
  // Re-fetching after drop+release works from a clean slate.
  ASSERT_TRUE(cache.Fetch("f2").ok());
  EXPECT_TRUE(cache.Contains("f2"));
}

/// Store whose Get stalls long enough that concurrent fetchers of the same
/// key pile up behind the first one.
class SlowStore : public ObjectStore {
 public:
  explicit SlowStore(ObjectStore* base) : base_(base) {}
  Status Put(const std::string& key, const std::string& data) override {
    return base_->Put(key, data);
  }
  Result<std::string> Get(const std::string& key) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return base_->Get(key);
  }
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t length) override {
    return base_->ReadRange(key, offset, length);
  }
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override {
    return base_->List(prefix);
  }
  Status Delete(const std::string& key) override {
    return base_->Delete(key);
  }
  ObjectStoreMetrics metrics() const override { return base_->metrics(); }

 private:
  ObjectStore* base_;
};

TEST_F(FileCacheTest, SingleflightCoalescesConcurrentMisses) {
  SlowStore slow(&store_);
  CacheOptions opts;
  opts.capacity_bytes = 1000;
  FileCache cache(opts, &slow);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Result<std::string> got = cache.Fetch("f0");
      if (got.ok() && *got == std::string(100, 'a')) ok.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads);
  // Exactly one fetcher hit shared storage; every other miss coalesced
  // onto it (a non-coalesced second miss is impossible — once the winner
  // fills the entry, later fetches are hits).
  EXPECT_EQ(store_.metrics().gets, 1u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.coalesced + 1);
  EXPECT_GE(stats.coalesced, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.bytes_filled, 100u);
}

// Concurrency smoke for TSan: readers, droppers and eviction churn on a
// small cache must neither race nor invalidate held refs.
TEST_F(FileCacheTest, ConcurrentFetchRefDropAndEvictionChurn) {
  FileCache cache = MakeCache(300);
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "f" + std::to_string((t * 3 + i) % 10);
        Result<FileRef> ref = cache.FetchRef(key);
        if (!ref.ok()) {
          bad.fetch_add(1);
          continue;
        }
        const std::string& data = **ref;
        if (data.size() != 100 || data[0] != 'a' + ((t * 3 + i) % 10)) {
          bad.fetch_add(1);
        }
        if (i % 17 == 0) cache.Drop(key);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(cache.pinned_refs(), 0u);
  EXPECT_LE(cache.size_bytes(), 300u);
}

// Pins are the refcount of the cached bytes: every live FileRef — copies
// and the ref a ready fetch handle hands over included — keeps its entry
// off the eviction list, and pinned_refs() counts exactly those refs.
TEST_F(FileCacheTest, RefcountPinsSurviveCapacityPressure) {
  FileCache cache = MakeCache(300);  // Fits 3 files.
  Result<FileRef> a = cache.FetchRef("f0");
  ASSERT_TRUE(a.ok());
  FileRef copy = *a;  // A copy is a second pin on the same entry.
  PendingFile pending = cache.FetchRefAsync("f1");
  Result<FileRef> b = pending.Wait();
  ASSERT_TRUE(b.ok());
  // The ready handle handed its ref over: one pin per live ref.
  EXPECT_EQ(cache.pinned_refs(), 3u);

  for (const char* k : {"f2", "f3", "f4", "f5", "f6", "f7"}) {
    ASSERT_TRUE(cache.Fetch(k).ok());
  }
  EXPECT_TRUE(cache.Contains("f0"));
  EXPECT_TRUE(cache.Contains("f1"));
  EXPECT_EQ(*copy, std::string(100, 'a'));
  EXPECT_EQ(**b, std::string(100, 'b'));

  a->reset();  // f0 is still pinned by the copy.
  EXPECT_EQ(cache.pinned_refs(), 2u);
  for (const char* k : {"f8", "f9"}) ASSERT_TRUE(cache.Fetch(k).ok());
  EXPECT_TRUE(cache.Contains("f0"));

  copy.reset();
  b->reset();
  EXPECT_EQ(cache.pinned_refs(), 0u);
  for (const char* k : {"f2", "f3", "f4"}) ASSERT_TRUE(cache.Fetch(k).ok());
  EXPECT_FALSE(cache.Contains("f0"));
  EXPECT_FALSE(cache.Contains("f1"));
  EXPECT_LE(cache.size_bytes(), 300u);
}

TEST_F(FileCacheTest, RefStaysValidAfterClear) {
  FileCache cache = MakeCache(1000);
  Result<FileRef> held = cache.FetchRef("f4");
  ASSERT_TRUE(held.ok());
  cache.Clear();
  EXPECT_FALSE(cache.Contains("f4"));
  EXPECT_EQ(cache.size_bytes(), 0u);
  // Only resident entries count as pinned; the bytes live on regardless.
  EXPECT_EQ(cache.pinned_refs(), 0u);
  EXPECT_EQ(**held, std::string(100, 'e'));
  // A re-fetch inserts a fresh entry; the old ref does not pin it.
  Result<FileRef> again = cache.FetchRef("f4");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.pinned_refs(), 1u);
  held->reset();
  EXPECT_EQ(cache.pinned_refs(), 1u);
  again->reset();
  EXPECT_EQ(cache.pinned_refs(), 0u);
}

// Concurrency smoke for TSan: refs fetched on several threads are copied
// and released later while eviction and Drop churn the cache (then Clear,
// from another thread). A held entry is never evicted, and every ref
// keeps its bytes.
TEST_F(FileCacheTest, ConcurrentRefcountPinsFetchReleaseEvict) {
  FileCache cache = MakeCache(300);
  Result<FileRef> anchor = cache.FetchRef("f0");
  ASSERT_TRUE(anchor.ok());
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::atomic<int> bad{0};
  auto churn = [&](int t) {
    std::vector<FileRef> kept;
    for (int i = 0; i < kIters; ++i) {
      const int f = 1 + (t * 5 + i) % 9;
      const std::string key = "f" + std::to_string(f);
      Result<FileRef> ref = (i % 2 == 0) ? cache.FetchRef(key)
                                         : cache.FetchRefAsync(key).Wait();
      if (!ref.ok() || (**ref)[0] != 'a' + f) {
        bad.fetch_add(1);
        continue;
      }
      kept.push_back(*ref);  // Copies released a few iterations later.
      if (kept.size() > 2) kept.erase(kept.begin());
      if (i % 23 == 0) cache.Drop(key);
    }
    for (const FileRef& ref : kept) {
      if (ref->size() != 100) bad.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(churn, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_TRUE(cache.Contains("f0"));  // Pinned through all the churn.
  EXPECT_EQ(cache.pinned_refs(), 1u);
  EXPECT_LE(cache.size_bytes(), 300u + 100u * kThreads);

  threads.clear();
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(churn, t);
  for (int i = 0; i < 20; ++i) {
    cache.Clear();
    std::this_thread::yield();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(**anchor, std::string(100, 'a'));
  anchor->reset();
  EXPECT_EQ(cache.pinned_refs(), 0u);
}

}  // namespace
}  // namespace eon
