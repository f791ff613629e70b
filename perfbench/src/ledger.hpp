#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "workload.hpp"

namespace perfbench {

struct LedgerConfig {
  std::string label;       ///< "<workload> seed=<n>", printed with any violation
  std::string store_path;  ///< the replay's own durable store file
  std::string trace_path;  ///< the recorded spans are written here at the end
  double seconds = 0;      ///< length of the measured replay
};

struct LedgerResult {
  std::vector<Metric> metrics;         ///< the per-layer metrics the replay measures
  std::vector<double> e2e_ns;          ///< per measured request, root span duration
  std::vector<std::string> breakdown;  ///< per size / family lines for the log
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string violation;
};

/// The traced run's layer replay. It replays the workload's seeded stream
/// with the workload's concurrency through each layer's public functions in
/// pipeline order (wire decode, canonical_form, result_key, find_result,
/// relabel, all_pairs_distances, instance_from_distances, the portfolio
/// race, labeling_from_order + is_valid_labeling, durable put_result, wire
/// encode), records one span per call (name, start, end, parent, request
/// id) in memory, and writes the spans out at the end. Stage timings cover
/// every replayed request, the prep requests included; per-request e2e and
/// unattributed time cover the measured requests.
LedgerResult run_ledger(const Traits& traits, const Stream& stream, const LedgerConfig& config);

}  // namespace perfbench
