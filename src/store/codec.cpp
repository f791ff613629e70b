#include "store/codec.hpp"

#include <bit>
#include <cmath>

#include "graph/io.hpp"
#include "util/endian.hpp"

namespace lptsp {

namespace {

constexpr std::uint8_t kResultFormatVersion = 1;
constexpr std::uint8_t kTunerScoresFormatVersion = 1;

constexpr std::uint32_t kMaxPDimension = 64;  // k far beyond any real request

using endian::try_get_u32;
using endian::try_get_u64;
using endian::try_get_u8;

}  // namespace

void encode_persisted_result(std::vector<std::uint8_t>& out, const Graph& canon,
                             const std::vector<int>& p_entries, const ResultEntry& entry) {
  out.reserve(out.size() + 1 + graph_binary_size(canon) + 4 + 4 * p_entries.size() + 4 +
              8 * entry.labels.size() + kPersistedResultTrailerSize);
  out.push_back(kResultFormatVersion);
  append_graph_binary(out, canon);
  endian::put_u32(out, static_cast<std::uint32_t>(p_entries.size()));
  for (const int p : p_entries) endian::put_u32(out, static_cast<std::uint32_t>(p));
  endian::put_u32(out, static_cast<std::uint32_t>(entry.labels.size()));
  for (const Weight label : entry.labels) {
    endian::put_u64(out, static_cast<std::uint64_t>(label));
  }
  // Fixed-size trailer — peek_persisted_result_quality reads span/optimal
  // straight off the record's tail, so its layout is part of format v1.
  endian::put_u64(out, static_cast<std::uint64_t>(entry.span));
  out.push_back(entry.optimal ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(entry.engine));
  endian::put_u64(out, static_cast<std::uint64_t>(entry.deadline_ms));
}

bool peek_persisted_result_quality(const std::uint8_t* trailer, Weight& span, bool& optimal) {
  const std::uint8_t optimal_byte = trailer[8];
  if (optimal_byte > 1 || trailer[9] > kLastEngine) return false;
  span = static_cast<Weight>(endian::get_u64(trailer));
  if (span < 0) return false;
  optimal = optimal_byte == 1;
  return true;
}

bool decode_persisted_result(const std::uint8_t* data, std::size_t size,
                             PersistedResult& result, std::string& error) {
  std::size_t offset = 0;
  std::uint8_t version = 0;
  if (!try_get_u8(data, size, offset, version)) {
    error = "result record: truncated version byte";
    return false;
  }
  if (version != kResultFormatVersion) {
    error = "result record: unsupported format version " + std::to_string(version);
    return false;
  }
  if (!decode_graph_binary(data, size, offset, result.canon, error,
                           kMaxPersistedGraphVertices)) {
    error = "result record graph: " + error;
    return false;
  }
  std::uint32_t k = 0;
  if (!try_get_u32(data, size, offset, k) || k == 0 || k > kMaxPDimension) {
    error = "result record: bad p dimension";
    return false;
  }
  result.p_entries.assign(k, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint32_t p = 0;
    if (!try_get_u32(data, size, offset, p) || p > (1u << 30)) {
      error = "result record: bad p entry";
      return false;
    }
    result.p_entries[i] = static_cast<int>(p);
  }
  std::uint32_t label_count = 0;
  if (!try_get_u32(data, size, offset, label_count) ||
      label_count != static_cast<std::uint32_t>(result.canon.n())) {
    error = "result record: label count disagrees with graph order";
    return false;
  }
  result.entry.labels.assign(label_count, 0);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    std::uint64_t label = 0;
    if (!try_get_u64(data, size, offset, label)) {
      error = "result record: truncated labels";
      return false;
    }
    result.entry.labels[i] = static_cast<Weight>(label);
    if (result.entry.labels[i] < 0) {
      error = "result record: negative label";
      return false;
    }
  }
  std::uint64_t span = 0;
  std::uint8_t optimal = 0;
  std::uint8_t engine = 0;
  std::uint64_t deadline_ms = 0;
  if (!try_get_u64(data, size, offset, span) || !try_get_u8(data, size, offset, optimal) ||
      !try_get_u8(data, size, offset, engine) || !try_get_u64(data, size, offset, deadline_ms)) {
    error = "result record: truncated trailer";
    return false;
  }
  if (optimal > 1 || engine > kLastEngine || static_cast<Weight>(span) < 0 ||
      static_cast<std::int64_t>(deadline_ms) < 0) {
    error = "result record: out-of-range trailer field";
    return false;
  }
  if (offset != size) {
    error = "result record: trailing bytes";
    return false;
  }
  result.entry.span = static_cast<Weight>(span);
  result.entry.optimal = optimal == 1;
  result.entry.engine = static_cast<Engine>(engine);
  result.entry.deadline_ms = static_cast<std::int64_t>(deadline_ms);
  return true;
}

void encode_tuner_scores(std::vector<std::uint8_t>& out, const TunerScores& scores) {
  out.push_back(kTunerScoresFormatVersion);
  endian::put_u32(out, static_cast<std::uint32_t>(obs::kSizeBuckets));
  for (std::size_t b = 0; b < scores.exact.size(); ++b) {
    endian::put_u64(out, std::bit_cast<std::uint64_t>(scores.exact[b]));
    endian::put_u64(out, std::bit_cast<std::uint64_t>(scores.heuristic[b]));
  }
}

bool decode_tuner_scores(const std::uint8_t* data, std::size_t size, TunerScores& scores,
                         std::string& error) {
  std::size_t offset = 0;
  std::uint8_t version = 0;
  if (!try_get_u8(data, size, offset, version) || version != kTunerScoresFormatVersion) {
    error = "tuner scores record: bad version";
    return false;
  }
  std::uint32_t buckets = 0;
  if (!try_get_u32(data, size, offset, buckets) ||
      buckets != static_cast<std::uint32_t>(obs::kSizeBuckets)) {
    error = "tuner scores record: bucket count differs from this build";
    return false;
  }
  const auto read_score = [&](double& score) {
    std::uint64_t bits = 0;
    if (!try_get_u64(data, size, offset, bits)) return false;
    score = std::bit_cast<double>(bits);
    return std::isfinite(score) && score >= 0;
  };
  for (std::size_t b = 0; b < scores.exact.size(); ++b) {
    if (!read_score(scores.exact[b]) || !read_score(scores.heuristic[b])) {
      error = "tuner scores record: truncated or out-of-range score";
      return false;
    }
  }
  if (offset != size) {
    error = "tuner scores record: trailing bytes";
    return false;
  }
  return true;
}

}  // namespace lptsp
