#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/batch_solver.hpp"
#include "workload.hpp"

namespace perfbench {

/// The service under test, reached only through its public API.
struct Service {
  std::unique_ptr<lptsp::BatchSolver> solver;
  std::unique_ptr<lptsp::LabelingServer> server;
  std::vector<std::unique_ptr<lptsp::LabelingClient>> clients;

  Service() = default;
  Service(Service&&) = default;
  Service& operator=(Service&&) = default;
  ~Service() { stop(); }

  /// Close the clients, stop the server, destroy the solver. Idempotent.
  void stop();
};

/// Solver construction (store open + warm load) through server start and
/// client connect: everything setup_s times.
Service start_service(const Traits& traits, const std::string& store_path);

/// One answered request, kept until the output check has seen it.
struct Outcome {
  std::uint64_t lane = 0;
  std::uint64_t index = 0;
  lptsp::SolveResponse response;
  double latency_us = 0;
  double lag_us = -1;  ///< generator lag; < 0 = none recorded
  bool measured = true;
};

/// Aggregates over checked outcomes.
struct Tally {
  std::uint64_t attempted = 0, ok = 0, failed = 0, rejected = 0, optimal = 0, coalesced = 0;
  std::uint64_t lights = 0, lights_good = 0;
  double span_sum = 0, bound_sum = 0, wall_s = 0;
  std::vector<double> latency_us, lag_us, queue_ns, transit_ns;
  bool correct = true;
  std::string violation;      ///< the first failed check, with workload and seed
  std::string first_failure;  ///< the first unexpected non-Ok status

  void merge(Tally&& other);
};

struct RunConfig {
  std::string label;          ///< "<workload> seed=<n>", printed with any violation
  std::uint64_t seed = 0;     ///< also seeds the open loop's arrival schedule
  double light_limit_us = 0;  ///< light_goodput_fraction's latency limit
  double warmup_s = 0;
  double measure_s = 0;
};

/// Check every outcome on the caller's own graph (regenerated from the
/// stream) and fold it into `measured` or `warmup`. Runs on a few threads.
void settle(const Stream& stream, const Traits& traits, const RunConfig& config,
            std::vector<Outcome>& outcomes, Tally& measured, Tally& warmup);

/// Drive the workload against `service`: a warm-up phase (checked, not
/// counted), then the measured phase, whose tally is returned.
Tally drive(Service& service, const Stream& stream, const Traits& traits, const RunConfig& config);

}  // namespace perfbench
