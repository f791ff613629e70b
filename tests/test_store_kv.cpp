#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "store/kv.hpp"
#include "util/fault.hpp"

namespace lptsp {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "lptsp_" + name + ".store";
}

KvStore::Options options_for(const std::string& path) {
  KvStore::Options options;
  options.path = path;
  return options;
}

std::unique_ptr<KvStore> must_open(const KvStore::Options& options) {
  std::string error;
  auto store = KvStore::open(options, error);
  EXPECT_NE(store, nullptr) << error;
  return store;
}

TEST(KvStore, PutGetOverwriteEraseSurviveReopen) {
  const std::string path = temp_path("basic");
  std::remove(path.c_str());
  {
    auto store = must_open(options_for(path));
    EXPECT_TRUE(store->put(0, "alpha", "1"));
    EXPECT_TRUE(store->put(0, "beta", "2"));
    EXPECT_TRUE(store->put(0, "alpha", "one"));  // overwrite
    EXPECT_TRUE(store->put(1, "gamma", "3"));
    EXPECT_TRUE(store->erase(0, "beta"));
    EXPECT_TRUE(store->erase(0, "never-existed"));  // no-op, still true
    EXPECT_EQ(store->get(0, "alpha"), "one");
    EXPECT_EQ(store->get(0, "beta"), std::nullopt);
  }
  auto store = must_open(options_for(path));
  EXPECT_EQ(store->get(0, "alpha"), "one");
  EXPECT_EQ(store->get(0, "beta"), std::nullopt);
  EXPECT_EQ(store->get(1, "gamma"), "3");
  EXPECT_EQ(store->size(0), 1u);
  EXPECT_EQ(store->size(1), 1u);
  const KvStore::Stats stats = store->stats();
  EXPECT_EQ(stats.live_records, 2u);
  // 4 puts + 1 tombstone replayed (the no-op erase wrote nothing).
  EXPECT_EQ(stats.total_records, 5u);
  EXPECT_EQ(stats.dropped_records, 0u);
  std::remove(path.c_str());
}

TEST(KvStore, NamespacesAreIndependentKeySpaces) {
  const std::string path = temp_path("namespaces");
  std::remove(path.c_str());
  auto store = must_open(options_for(path));
  EXPECT_TRUE(store->put(0, "key", "results-value"));
  EXPECT_TRUE(store->put(1, "key", "meta-value"));
  EXPECT_EQ(store->get(0, "key"), "results-value");
  EXPECT_EQ(store->get(1, "key"), "meta-value");
  EXPECT_TRUE(store->erase(0, "key"));
  EXPECT_EQ(store->get(0, "key"), std::nullopt);
  EXPECT_EQ(store->get(1, "key"), "meta-value");
  // Out-of-range namespaces are rejected, not UB.
  EXPECT_FALSE(store->put(KvStore::kNamespaces, "key", "x"));
  EXPECT_EQ(store->get(KvStore::kNamespaces, "key"), std::nullopt);
  std::remove(path.c_str());
}

TEST(KvStore, CompactionShrinksTheFileAndPreservesEveryLiveKey) {
  const std::string path = temp_path("compaction");
  std::remove(path.c_str());
  KvStore::Options options = options_for(path);
  options.compact_min_records = 32;
  options.compact_garbage_ratio = 0.5;
  {
    auto store = must_open(options);
    // Churn one hot key far past the garbage threshold while a few cold
    // keys sit alongside it.
    for (int i = 0; i < 8; ++i) {
      store->put(0, "cold-" + std::to_string(i), std::string(64, 'c'));
    }
    for (int i = 0; i < 500; ++i) {
      store->put(0, "hot", "value-" + std::to_string(i));
    }
    const KvStore::Stats stats = store->stats();
    EXPECT_GE(stats.compactions, 1u);
    EXPECT_EQ(stats.live_records, 9u);
    // Post-compaction the log holds (close to) only live records.
    EXPECT_LT(stats.total_records, 80u);
    EXPECT_EQ(store->get(0, "hot"), "value-499");
  }
  auto store = must_open(options);
  EXPECT_EQ(store->size(0), 9u);
  EXPECT_EQ(store->get(0, "hot"), "value-499");
  EXPECT_EQ(store->get(0, "cold-7"), std::string(64, 'c'));
  std::remove(path.c_str());
}

TEST(KvStore, ExplicitCompactAndSyncWork) {
  const std::string path = temp_path("explicit");
  std::remove(path.c_str());
  auto store = must_open(options_for(path));
  for (int i = 0; i < 50; ++i) store->put(0, "k", std::to_string(i));
  const std::uint64_t before = store->stats().file_bytes;
  EXPECT_TRUE(store->compact());
  EXPECT_TRUE(store->sync());
  const KvStore::Stats stats = store->stats();
  EXPECT_LT(stats.file_bytes, before);
  EXPECT_EQ(stats.total_records, 1u);
  EXPECT_EQ(store->get(0, "k"), "49");
  std::remove(path.c_str());
}

/// Returns true when `path` exists on disk.
bool file_exists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

/// Compaction "crashes" inside the rename window: the fully written
/// .compact sibling is left on disk (as a killed process would leave it)
/// and the old log stays live. Nothing is lost, the orphan is reclaimed on
/// reopen, and a later compaction succeeds.
TEST(KvStore, CompactionCrashInRenameWindowLosesNothing) {
  const std::string path = temp_path("compact_crash");
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  fault::disarm_all();
  {
    auto store = must_open(options_for(path));
    for (int i = 0; i < 40; ++i) {
      store->put(0, std::string("k") + std::to_string(i % 4), std::to_string(i));
    }

    fault::arm(FaultSite::StoreCompactRename, 1.0, 7, /*max_fires=*/1);
    EXPECT_FALSE(store->compact());
    fault::disarm_all();
    // The sibling survives the simulated crash; the live state is intact
    // because the index still points into the still-valid old log.
    EXPECT_TRUE(file_exists(path + ".compact"));
    EXPECT_EQ(store->get(0, "k3"), "39");
    EXPECT_EQ(store->size(0), 4u);
    EXPECT_EQ(store->stats().compactions, 0u);
    // The store keeps accepting writes after the failed compaction.
    EXPECT_TRUE(store->put(0, "post-crash", "alive"));
  }
  // Reopen: pre-compaction state is fully served, no record lost, and the
  // leftover sibling is reclaimed.
  auto store = must_open(options_for(path));
  EXPECT_FALSE(file_exists(path + ".compact"));
  EXPECT_EQ(store->size(0), 5u);
  EXPECT_EQ(store->get(0, "k0"), "36");
  EXPECT_EQ(store->get(0, "k3"), "39");
  EXPECT_EQ(store->get(0, "post-crash"), "alive");
  // With the fault gone, compaction completes and still loses nothing.
  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->size(0), 5u);
  EXPECT_EQ(store->get(0, "post-crash"), "alive");
  EXPECT_EQ(store->stats().compactions, 1u);
  std::remove(path.c_str());
}

/// Compaction interrupted by an injected fsync failure on the fresh log:
/// the abandon path removes the sibling, the old log stays authoritative,
/// and reopen serves the pre-compaction state.
TEST(KvStore, CompactionFsyncFailureAbandonsCleanly) {
  const std::string path = temp_path("compact_fsync");
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  fault::disarm_all();
  {
    auto store = must_open(options_for(path));
    for (int i = 0; i < 30; ++i) store->put(0, "key", std::to_string(i));

    fault::arm(FaultSite::StoreFsync, 1.0, 11, /*max_fires=*/1);
    EXPECT_FALSE(store->compact());
    fault::disarm_all();
    // Abandoned, not crashed: no orphan left beside the log.
    EXPECT_FALSE(file_exists(path + ".compact"));
    EXPECT_EQ(store->get(0, "key"), "29");
  }
  auto store = must_open(options_for(path));
  EXPECT_EQ(store->get(0, "key"), "29");
  EXPECT_EQ(store->size(0), 1u);
  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->get(0, "key"), "29");
  std::remove(path.c_str());
}

/// A put too large for the log is refused before it touches anything: the
/// store reads as if it never happened, an existing value under the key
/// survives, and compaction (the degraded-mode heal) keeps working.
TEST(KvStore, OversizedPutIsRefusedAndDoesNotBlockCompaction) {
  const std::string path = temp_path("oversized");
  std::remove(path.c_str());
  KvStore::Options options = options_for(path);
  options.max_record_bytes = 64;
  auto store = must_open(options);
  EXPECT_FALSE(store->put(0, "big", std::string(100, 'x')));
  EXPECT_EQ(store->size(0), 0u);
  EXPECT_EQ(store->get(0, "big"), std::nullopt);
  EXPECT_TRUE(store->put(0, "small", "ok"));
  EXPECT_FALSE(store->put(0, "small", std::string(100, 'y')));
  EXPECT_EQ(store->get(0, "small"), "ok");
  EXPECT_TRUE(store->compact());
  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->get(0, "big"), std::nullopt);
  EXPECT_EQ(store->get(0, "small"), "ok");
  EXPECT_EQ(store->size(0), 1u);
  EXPECT_EQ(store->stats().resident_value_bytes, 0u);
  std::remove(path.c_str());
}

/// Reads come from the log and re-check the frame: a byte flipped on disk
/// after open() makes that one record unreadable. get and for_each never
/// return it, compaction does not copy it and counts it as dropped, and
/// every other record survives.
TEST(KvStore, BitRotAfterOpenIsNeverServedAndCompactionDropsIt) {
  const std::string path = temp_path("readback");
  std::remove(path.c_str());
  auto store = must_open(options_for(path));
  EXPECT_TRUE(store->put(0, "before", "value-before"));
  EXPECT_TRUE(store->put(0, "victim", "value-VICTIM"));
  EXPECT_TRUE(store->put(0, "after", "value-after"));

  std::vector<char> file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string marker = "VICTIM";
  const auto at = std::search(file.begin(), file.end(), marker.begin(), marker.end());
  ASSERT_NE(at, file.end());
  *at ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }

  EXPECT_EQ(store->get(0, "victim"), std::nullopt);
  EXPECT_EQ(store->get(0, "before"), "value-before");
  std::vector<std::string> visited;
  store->for_each(0, [&visited](std::string_view key, std::string_view) {
    visited.emplace_back(key);
  });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, (std::vector<std::string>{"after", "before"}));

  const std::uint64_t dropped_before = store->stats().dropped_records;
  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->stats().dropped_records, dropped_before + 1);
  EXPECT_EQ(store->size(0), 2u);
  store.reset();
  store = must_open(options_for(path));
  EXPECT_EQ(store->stats().dropped_records, 0u);  // the new log never held it
  EXPECT_EQ(store->get(0, "victim"), std::nullopt);
  EXPECT_EQ(store->get(0, "after"), "value-after");
  EXPECT_EQ(store->size(0), 2u);
  std::remove(path.c_str());
}

/// Memory does not scale with what is stored: durably appended values are
/// not held in memory at all. Only puts whose append failed are (so the
/// heal can still write them), and a successful compaction releases them
/// into the log, where a reopened store finds them.
TEST(KvStore, OnlyPendingValuesAreResident) {
  const std::string path = temp_path("resident");
  std::remove(path.c_str());
  fault::disarm_all();
  const std::string big(8192, 'v');
  auto store = must_open(options_for(path));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->put(0, "key-" + std::to_string(i), big)) << i;
  }
  EXPECT_EQ(store->stats().resident_value_bytes, 0u);
  EXPECT_EQ(store->stats().live_records, 1000u);

  fault::arm(FaultSite::StoreAppend, 1.0, 3);
  EXPECT_FALSE(store->put(0, "pending-new", std::string(8192, 'n')));
  EXPECT_FALSE(store->put(0, "key-7", std::string(8192, 'o')));  // overwrite goes pending
  fault::disarm_all();
  // The failed append poisoned the log: later puts also wait in memory.
  EXPECT_FALSE(store->put(0, "after-fault", "small"));
  EXPECT_GE(store->stats().resident_value_bytes, 2u * 8192u);
  EXPECT_EQ(store->get(0, "pending-new"), std::string(8192, 'n'));
  EXPECT_EQ(store->get(0, "key-7"), std::string(8192, 'o'));
  EXPECT_EQ(store->size(0), 1002u);

  EXPECT_TRUE(store->compact());
  EXPECT_EQ(store->stats().resident_value_bytes, 0u);
  EXPECT_TRUE(store->put(0, "post-heal", "written"));
  store.reset();
  store = must_open(options_for(path));
  EXPECT_EQ(store->size(0), 1003u);
  EXPECT_EQ(store->get(0, "pending-new"), std::string(8192, 'n'));
  EXPECT_EQ(store->get(0, "key-7"), std::string(8192, 'o'));
  EXPECT_EQ(store->get(0, "after-fault"), "small");
  EXPECT_EQ(store->get(0, "post-heal"), "written");
  EXPECT_EQ(store->get(0, "key-999"), big);
  EXPECT_EQ(store->stats().resident_value_bytes, 0u);
  std::remove(path.c_str());
}

/// The trailer read the backend's better-record check uses: the last bytes
/// of the value, from the log or the pending set, never from a different
/// key.
TEST(KvStore, ReadValueTailReadsOnlyThatKeysValue) {
  const std::string path = temp_path("tail");
  std::remove(path.c_str());
  fault::disarm_all();
  auto store = must_open(options_for(path));
  EXPECT_TRUE(store->put(0, "alpha", "0123456789"));
  std::uint8_t tail[4] = {};
  ASSERT_TRUE(store->read_value_tail(0, "alpha", tail, sizeof(tail)));
  EXPECT_EQ(std::string(tail, tail + 4), "6789");
  EXPECT_FALSE(store->read_value_tail(0, "alpha", tail, 11));  // longer than the value
  EXPECT_FALSE(store->read_value_tail(0, "beta", tail, sizeof(tail)));
  EXPECT_FALSE(store->read_value_tail(1, "alpha", tail, sizeof(tail)));
  fault::arm(FaultSite::StoreAppend, 1.0, 5);
  EXPECT_FALSE(store->put(0, "alpha", "pending-WXYZ"));
  fault::disarm_all();
  ASSERT_TRUE(store->read_value_tail(0, "alpha", tail, sizeof(tail)));
  EXPECT_EQ(std::string(tail, tail + 4), "WXYZ");
  std::remove(path.c_str());
}

TEST(KvStore, SyncEveryPutRoundTrips) {
  const std::string path = temp_path("synced");
  std::remove(path.c_str());
  KvStore::Options options = options_for(path);
  options.sync_every_put = true;
  {
    auto store = must_open(options);
    EXPECT_TRUE(store->put(0, "durable", "yes"));
  }
  auto store = must_open(options);
  EXPECT_EQ(store->get(0, "durable"), "yes");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lptsp
