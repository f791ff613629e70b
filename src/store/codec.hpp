#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "service/solve_cache.hpp"
#include "service/tuner.hpp"

namespace lptsp {

/// Serialization for the durable store's two record types. Kept in the
/// style of graph/io's binary codec (little-endian, validate-before-
/// allocate, non-throwing decode): the graph payload inside a result
/// record IS the canonical binary encoding from graph/io.hpp.

/// Upper bound on the order of a persisted graph. Re-verifying a record on
/// reload costs an O(n^2) distance matrix, so this bounds the allocation a
/// hostile or corrupt (but CRC-valid) record can force on a restarting
/// service: larger graphs are rejected at decode time and never written in
/// the first place. 4096 vertices = a 64 MB matrix, far above any instance
/// the engines solve interactively.
constexpr int kMaxPersistedGraphVertices = 4096;

/// A solve-cache result as persisted: the canonical graph and p travel
/// with the labeling, which makes every record independently verifiable on
/// reload (is_valid_labeling needs nothing but the record itself) — the
/// store never has to trust its own bytes.
struct PersistedResult {
  Graph canon{0};               ///< canonical-numbering graph
  std::vector<int> p_entries;   ///< the constraint vector p
  ResultEntry entry;            ///< labels in canonical numbering + provenance
};

/// Append the encoding of one result record to `out`.
void encode_persisted_result(std::vector<std::uint8_t>& out, const Graph& canon,
                             const std::vector<int>& p_entries, const ResultEntry& entry);

/// Decode a result record. Returns false with a diagnostic on any
/// structural problem (truncation, counts that disagree, out-of-range
/// enums); never throws and never allocates more than the input implies.
[[nodiscard]] bool decode_persisted_result(const std::uint8_t* data, std::size_t size,
                                           PersistedResult& result, std::string& error);

/// Every version-1 result record ends in this fixed-size trailer:
/// span u64 | optimal u8 | engine u8 | deadline_ms u64.
constexpr std::size_t kPersistedResultTrailerSize = 18;

/// Read just (span, optimal) from a result record's trailer (its last
/// kPersistedResultTrailerSize bytes) without the rest of the record.
/// This is the O(1) read behind the backend's "is the record on disk
/// already better?" check, which then needs only those bytes off the log.
/// False when the bytes cannot be a version-1 trailer.
[[nodiscard]] bool peek_persisted_result_quality(const std::uint8_t* trailer, Weight& span,
                                                 bool& optimal);

/// Append the encoding of the engine tuner's learned scores: u8 version |
/// u32 bucket count | per bucket f64 exact score, f64 heuristic score
/// (IEEE-754 bits, little-endian).
void encode_tuner_scores(std::vector<std::uint8_t>& out, const TunerScores& scores);

/// Decode a tuner-scores record. Rejects a bucket count other than this
/// build's obs::kSizeBuckets (a build that re-buckets must not
/// misattribute scores) and any negative or non-finite score (the
/// tuner's seed cap cannot tame a NaN). Never throws.
[[nodiscard]] bool decode_tuner_scores(const std::uint8_t* data, std::size_t size,
                                       TunerScores& scores, std::string& error);

}  // namespace lptsp
