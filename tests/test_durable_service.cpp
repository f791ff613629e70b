#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "service/batch_solver.hpp"
#include "store/backend.hpp"
#include "store/codec.hpp"
#include "util/endian.hpp"
#include "util/rng.hpp"

namespace lptsp {
namespace {

std::string temp_store(const std::string& name) {
  return ::testing::TempDir() + "lptsp_" + name + "_" + std::to_string(::getpid()) + ".store";
}

std::vector<Graph> make_graphs(int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Graph> graphs;
  graphs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    graphs.push_back(random_with_diameter_at_most(12, 2, 0.3, rng));
  }
  return graphs;
}

SolveRequest request_for(const Graph& graph) {
  SolveRequest request;
  request.graph = graph;
  request.p = PVec::L21();
  return request;
}

BatchSolver::Options durable_options(const std::string& path) {
  BatchSolver::Options options;
  options.store_path = path;
  options.request_workers = 2;
  options.engine_workers = 2;
  return options;
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// The acceptance scenario: a restarted solver serves everything the
/// previous process solved straight from disk — zero engine runs — and
/// reports the hits as cache hits, even when the graphs arrive relabeled.
TEST(DurableService, RestartServesFromDiskWithZeroResolves) {
  const std::string path = temp_store("restart");
  std::remove(path.c_str());
  const std::vector<Graph> graphs = make_graphs(6, 11);
  {
    BatchSolver solver(durable_options(path));
    EXPECT_EQ(solver.warm_stats().loaded, 0u);
    for (const Graph& graph : graphs) {
      const SolveResponse response = solver.solve_one(request_for(graph));
      ASSERT_TRUE(response.ok()) << response.message;
    }
    EXPECT_GT(solver.engine_solves(), 0u);
  }
  {
    BatchSolver solver(durable_options(path));
    EXPECT_EQ(solver.warm_stats().loaded, 6u);
    EXPECT_EQ(solver.warm_stats().rejected, 0u);
    Rng rng(99);
    for (const Graph& graph : graphs) {
      // A relabeled copy must still hit: the durable key is canonical.
      const SolveResponse response =
          solver.solve_one(request_for(relabel(graph, rng.permutation(graph.n()))));
      ASSERT_TRUE(response.ok()) << response.message;
      EXPECT_EQ(response.source, ResponseSource::ResultCache);
    }
    EXPECT_EQ(solver.engine_solves(), 0u);
    EXPECT_EQ(solver.cache().stats().persisted_hits, 6u);
  }
  std::remove(path.c_str());
}

TEST(DurableService, TruncatedStoreReopensAndOnlyDamagedEntriesResolve) {
  const std::string path = temp_store("truncated");
  std::remove(path.c_str());
  const std::vector<Graph> graphs = make_graphs(6, 23);
  {
    BatchSolver solver(durable_options(path));
    for (const Graph& graph : graphs) {
      ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
    }
  }
  // Kill two thirds of the file mid-record: everything after the cut is a
  // damaged tail the store must repair away without losing the prefix.
  std::vector<char> file = read_file(path);
  ASSERT_GT(file.size(), 64u);
  file.resize(file.size() * 2 / 3);
  write_file(path, file);

  BatchSolver solver(durable_options(path));
  const std::uint64_t loaded = solver.warm_stats().loaded;
  EXPECT_GE(loaded, 1u);
  EXPECT_LT(loaded, 6u);
  for (const Graph& graph : graphs) {
    ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
  }
  // Exactly the lost entries re-solved; the surviving prefix served.
  EXPECT_EQ(solver.engine_solves(), 6u - loaded);
  std::remove(path.c_str());
}

TEST(DurableService, BitFlippedRecordDropsOnlyThatEntry) {
  const std::string path = temp_store("bitflip");
  std::remove(path.c_str());
  const std::vector<Graph> graphs = make_graphs(5, 37);
  {
    BatchSolver solver(durable_options(path));
    for (const Graph& graph : graphs) {
      ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
    }
  }
  // Flip one byte inside the FIRST record's payload (the log header is 16
  // bytes, each record frame 8 — offset 40 is safely inside record 1).
  std::vector<char> file = read_file(path);
  ASSERT_GT(file.size(), 64u);
  file[40] = static_cast<char>(file[40] ^ 0x10);
  write_file(path, file);

  BatchSolver solver(durable_options(path));
  EXPECT_EQ(solver.warm_stats().loaded, 4u);  // CRC catches the flip
  for (const Graph& graph : graphs) {
    ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
  }
  EXPECT_EQ(solver.engine_solves(), 1u);
  std::remove(path.c_str());
}

TEST(DurableService, TunerScoresPersistAcrossRestart) {
  const std::string path = temp_store("tunerscores");
  std::remove(path.c_str());
  TunerScores before;
  {
    BatchSolver solver(durable_options(path));
    for (const Graph& graph : make_graphs(8, 53)) {
      ASSERT_TRUE(solver.solve_one(request_for(graph)).ok());
    }
    before = solver.tuner().scores();
  }
  double total = 0;
  for (std::size_t b = 0; b < before.exact.size(); ++b) {
    total += before.exact[b] + before.heuristic[b];
  }
  ASSERT_GT(total, 0.0) << "expected at least one contested race to be scored";

  // The restart restores exactly what the destructor checkpointed, capped
  // by the seed rule.
  BatchSolver solver(durable_options(path));
  const double cap = solver.tuner().options().skip_score * EngineTuner::kSeedCapFactor;
  const TunerScores after = solver.tuner().scores();
  for (std::size_t b = 0; b < before.exact.size(); ++b) {
    EXPECT_DOUBLE_EQ(after.exact[b], std::min(before.exact[b], cap)) << "bucket " << b;
    EXPECT_DOUBLE_EQ(after.heuristic[b], std::min(before.heuristic[b], cap)) << "bucket " << b;
  }
  std::remove(path.c_str());
}

/// Stores written before the tuner owned engine-choice state hold raw win
/// counts under namespace 1, key "win-table". They are ignored: learning
/// starts unseeded.
TEST(DurableService, LegacyWinCountRecordIsIgnored) {
  const std::string path = temp_store("legacywins");
  std::remove(path.c_str());
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    // Version 1, 32 buckets x 3 slots, every count 1000.
    std::vector<std::uint8_t> bytes{1};
    endian::put_u32(bytes, 32);
    endian::put_u32(bytes, 3);
    for (int i = 0; i < 32 * 3; ++i) endian::put_u64(bytes, 1000);
    ASSERT_TRUE(backend->kv().put(PersistentBackend::kMetaNamespace, "win-table",
                                  std::string(bytes.begin(), bytes.end())));
  }
  BatchSolver solver(durable_options(path));
  const TunerScores scores = solver.tuner().scores();
  for (std::size_t b = 0; b < scores.exact.size(); ++b) {
    EXPECT_EQ(scores.exact[b], 0.0);
    EXPECT_EQ(scores.heuristic[b], 0.0);
  }
  std::remove(path.c_str());
}

/// A persisted result's engine byte (trailer offset 9) decodes up to
/// kLastEngine; kLastEngine + 1 is a corrupt or future record, rejected by
/// both the full decode and the trailer peek.
TEST(ResultCodec, EngineBytesAboveTheLastEngineAreRejected) {
  ResultEntry entry;
  entry.labels = {0, 2, 4};
  entry.span = 4;
  entry.optimal = true;
  entry.engine = static_cast<Engine>(kLastEngine);
  std::vector<std::uint8_t> bytes;
  encode_persisted_result(bytes, path_graph(3), PVec::L21().entries(), entry);
  const std::size_t trailer_at = bytes.size() - kPersistedResultTrailerSize;
  ASSERT_EQ(bytes[trailer_at + 9], kLastEngine);
  PersistedResult decoded;
  std::string error;
  ASSERT_TRUE(decode_persisted_result(bytes.data(), bytes.size(), decoded, error)) << error;
  EXPECT_EQ(decoded.entry.engine, static_cast<Engine>(kLastEngine));
  Weight span = 0;
  bool optimal = false;
  ASSERT_TRUE(peek_persisted_result_quality(bytes.data() + trailer_at, span, optimal));
  EXPECT_EQ(span, 4);
  EXPECT_TRUE(optimal);

  bytes[trailer_at + 9] = kLastEngine + 1;
  EXPECT_FALSE(decode_persisted_result(bytes.data(), bytes.size(), decoded, error));
  EXPECT_NE(error.find("out-of-range trailer"), std::string::npos) << error;
  EXPECT_FALSE(peek_persisted_result_quality(bytes.data() + trailer_at, span, optimal));
}

// ---------------------------------------------------------------------------
// The tuner-scores record codec, directly.
// ---------------------------------------------------------------------------

TunerScores sample_scores() {
  TunerScores scores;
  for (std::size_t b = 0; b < scores.exact.size(); ++b) {
    scores.exact[b] = 0.25 * static_cast<double>(b);
    scores.heuristic[b] = 1000.5 - static_cast<double>(b);
  }
  scores.exact[3] = 1e-300;  // denormal-adjacent values survive bit for bit
  return scores;
}

bool decodes(const std::vector<std::uint8_t>& bytes, TunerScores& scores) {
  std::string error;
  const bool ok = decode_tuner_scores(bytes.data(), bytes.size(), scores, error);
  EXPECT_EQ(ok, error.empty()) << error;
  return ok;
}

TEST(TunerScoresCodec, RoundTripIsExact) {
  const TunerScores scores = sample_scores();
  std::vector<std::uint8_t> bytes;
  encode_tuner_scores(bytes, scores);
  EXPECT_EQ(bytes.size(), 1u + 4u + static_cast<std::size_t>(obs::kSizeBuckets) * 16u);
  TunerScores decoded;
  ASSERT_TRUE(decodes(bytes, decoded));
  EXPECT_EQ(decoded.exact, scores.exact);
  EXPECT_EQ(decoded.heuristic, scores.heuristic);
}

TEST(TunerScoresCodec, EveryTruncationAndTrailingByteIsRejected) {
  std::vector<std::uint8_t> bytes;
  encode_tuner_scores(bytes, sample_scores());
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    TunerScores decoded;
    std::string error;
    EXPECT_FALSE(decode_tuner_scores(bytes.data(), length, decoded, error)) << length;
    EXPECT_FALSE(error.empty()) << length;
  }
  bytes.push_back(0);
  TunerScores decoded;
  EXPECT_FALSE(decodes(bytes, decoded));
}

TEST(TunerScoresCodec, BadVersionIsRejected) {
  std::vector<std::uint8_t> bytes;
  encode_tuner_scores(bytes, sample_scores());
  for (const std::uint8_t version : {std::uint8_t{0}, std::uint8_t{2}, std::uint8_t{255}}) {
    bytes[0] = version;
    TunerScores decoded;
    EXPECT_FALSE(decodes(bytes, decoded)) << static_cast<int>(version);
  }
}

TEST(TunerScoresCodec, WrongBucketCountIsRejected) {
  for (const std::uint32_t buckets : {0u, 31u, 33u, 64u}) {
    // A self-consistent record from a build with a different bucketing.
    std::vector<std::uint8_t> bytes{1};
    endian::put_u32(bytes, buckets);
    for (std::uint32_t i = 0; i < 2 * buckets; ++i) endian::put_u64(bytes, 0);
    TunerScores decoded;
    EXPECT_FALSE(decodes(bytes, decoded)) << buckets;
  }
}

TEST(TunerScoresCodec, NonFiniteAndNegativeScoresAreRejected) {
  const double poison[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0, -1e-300};
  for (const double bad : poison) {
    for (const bool heuristic : {false, true}) {
      TunerScores scores = sample_scores();
      (heuristic ? scores.heuristic : scores.exact)[7] = bad;
      std::vector<std::uint8_t> bytes;
      encode_tuner_scores(bytes, scores);
      TunerScores decoded;
      EXPECT_FALSE(decodes(bytes, decoded)) << bad << (heuristic ? " heuristic" : " exact");
    }
  }
}

/// Records whose bytes are intact (CRC passes) but whose contents are
/// wrong — tampering, a buggy foreign writer — are caught by the
/// re-verification pass and never served.
TEST(DurableService, TamperedRecordsAreRejectedByVerifyOnLoad) {
  const std::string path = temp_store("tampered");
  std::remove(path.c_str());
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  const PVec p = PVec::L21();
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    // Valid: K3 under L(2,1) wants pairwise label gaps >= 2.
    backend->put_result("good", triangle, p,
                        ResultEntry{{0, 2, 4}, 4, true, Engine::HeldKarp, 0, false});
    // Invalid labels: every pair violates the distance-1 constraint.
    backend->put_result("bad-labels", triangle, p,
                        ResultEntry{{0, 0, 0}, 0, true, Engine::HeldKarp, 0, false});
    // Valid labels but a lying span.
    backend->put_result("bad-span", triangle, p,
                        ResultEntry{{0, 2, 4}, 7, true, Engine::HeldKarp, 0, false});
  }
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  std::shared_ptr<PersistentBackend> backend = PersistentBackend::open(options, error);
  ASSERT_NE(backend, nullptr) << error;
  SolveCache cache;
  cache.attach_backend(backend);
  const SolveCache::WarmStats warm = cache.warm_from_disk();
  EXPECT_EQ(warm.loaded, 1u);
  EXPECT_EQ(warm.rejected, 2u);
  EXPECT_NE(cache.find_result("good"), nullptr);
  EXPECT_EQ(cache.find_result("bad-labels"), nullptr);
  EXPECT_EQ(cache.find_result("bad-span"), nullptr);
  std::remove(path.c_str());
}

/// The store is monotone-improving per key even when the in-memory cache
/// can no longer vouch for the better entry (it was evicted): a later,
/// worse write must not overwrite a better disk record.
TEST(DurableService, WorseLaterWriteCannotDegradeABetterStoredRecord) {
  const std::string path = temp_store("monotone");
  std::remove(path.c_str());
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  const PVec p = PVec::L21();
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    backend->put_result("k", triangle, p,
                        ResultEntry{{0, 2, 4}, 4, true, Engine::HeldKarp, 0, false});
    // Strictly worse (span 6, not optimal) but a valid labeling: the kind
    // of entry a short-deadline re-solve produces after an LRU eviction.
    backend->put_result("k", triangle, p,
                        ResultEntry{{0, 3, 6}, 6, false, Engine::ChainedLK, 40, false});
  }
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  std::shared_ptr<PersistentBackend> backend = PersistentBackend::open(options, error);
  ASSERT_NE(backend, nullptr) << error;
  SolveCache cache;
  cache.attach_backend(backend);
  EXPECT_EQ(cache.warm_from_disk().loaded, 1u);
  const auto entry = cache.find_result("k");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->span, 4);
  EXPECT_TRUE(entry->optimal);
  std::remove(path.c_str());
}

/// A CRC-valid record declaring a huge graph must be rejected at decode
/// time — reopening a store can never cost an O(n^2) verification matrix
/// beyond the documented bound, let alone OOM the restarting service.
TEST(DurableService, OversizedRecordIsRejectedNotFatal) {
  const std::string path = temp_store("oversized");
  std::remove(path.c_str());
  {
    PersistentBackend::Options options;
    options.path = path;
    std::string error;
    auto backend = PersistentBackend::open(options, error);
    ASSERT_NE(backend, nullptr) << error;
    const int n = kMaxPersistedGraphVertices + 1;
    ResultEntry entry;
    entry.labels.assign(static_cast<std::size_t>(n), 0);
    // put_result refuses to write it in the first place...
    backend->put_result("huge", Graph(n), PVec::L21(), entry);
    EXPECT_EQ(backend->kv().size(PersistentBackend::kResultsNamespace), 0u);
    // ...and a record smuggled past that gate (foreign writer) is
    // rejected by the decoder on reload, before any allocation.
    std::vector<std::uint8_t> encoded;
    encode_persisted_result(encoded, Graph(n), PVec::L21().entries(), entry);
    ASSERT_TRUE(backend->kv().put(
        PersistentBackend::kResultsNamespace, "huge",
        std::string(reinterpret_cast<const char*>(encoded.data()), encoded.size())));
  }
  PersistentBackend::Options options;
  options.path = path;
  std::string error;
  std::shared_ptr<PersistentBackend> backend = PersistentBackend::open(options, error);
  ASSERT_NE(backend, nullptr) << error;
  SolveCache cache;
  cache.attach_backend(backend);
  const SolveCache::WarmStats warm = cache.warm_from_disk();
  EXPECT_EQ(warm.loaded, 0u);
  EXPECT_EQ(warm.rejected, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lptsp
