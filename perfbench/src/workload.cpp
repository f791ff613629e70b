#include "workload.hpp"

#include <exception>
#include <mutex>

#include "core/labeling.hpp"
#include "core/reduction.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "graph/operations.hpp"
#include "tsp/lower_bounds.hpp"

namespace perfbench {

using namespace lptsp;

namespace {

constexpr Traits kTraits[] = {
    {"warm_relabel", Kind::WarmRelabel, false, false, true, 3, 1},
    {"cold_mixed", Kind::ColdMixed, false, false, true, 3, 1},
    {"loopback_mixed", Kind::LoopbackMixed, true, false, false, 4, 8},
    {"overload_open", Kind::OverloadOpen, true, true, false, 4, 0},
};

// Stream shapes. Why each workload has the shape it has is recorded in
// BENCHMARK.json and perfbench/LEDGER.md.
constexpr std::chrono::milliseconds kColdDeadline{40};
constexpr int kColdN = 60;
constexpr int kWarmSizes[] = {60, 120, 240};
/// Cumulative share of warm requests per size: 70/20/10, so the p50 lands
/// inside the n=60 class and the p99 inside the n=240 class.
constexpr double kWarmSizeCdf[] = {0.70, 0.90, 1.0};
constexpr int kWarmBasesPerSize = 16;
constexpr int kLightBases = 8;
constexpr int kColdPrepJobs = 16;
constexpr std::uint64_t kPrepLane = 1000;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool connected(const Graph& graph) {
  for (const int d : bfs_distances(graph, 0)) {
    if (d == kUnreachable) return false;
  }
  return true;
}

/// random_with_diameter_at_most runs its distance matrix on the shared
/// ThreadPool, which serves one parallel region at a time; callers and
/// checkers generate concurrently, so they take turns here.
Graph diameter_capped(int n, int cap, double edge_prob, Rng& rng) {
  static std::mutex mutex;
  const std::lock_guard lock(mutex);
  return random_with_diameter_at_most(n, cap, edge_prob, rng);
}

Job cold_job(Family family, Rng& rng) {
  Job job;
  job.family = family;
  job.request.deadline = kColdDeadline;
  switch (family) {
    case Family::ErDiam2:
      job.request.graph = diameter_capped(kColdN, 2, 0.15, rng);
      break;
    case Family::ErDiam3:
      job.request.graph = diameter_capped(kColdN, 3, 0.08, rng);
      job.request.p = PVec({2, 2, 1});
      break;
    case Family::Cograph:
      do {
        job.request.graph = random_cograph(kColdN, rng);
      } while (!connected(job.request.graph));
      break;
    case Family::Relabel:
      break;
  }
  return job;
}

/// The cold_mixed mix: 45% ER diameter-2 L(2,1), 45% ER diameter-3
/// L(2,2,1), 10% connected cographs.
Job cold_mix(Rng& rng) {
  const double u = rng.uniform01();
  return cold_job(u < 0.45 ? Family::ErDiam2 : u < 0.90 ? Family::ErDiam3 : Family::Cograph, rng);
}

}  // namespace

const Traits* find_traits(const std::string& name) {
  for (const Traits& traits : kTraits) {
    if (name == traits.name) return &traits;
  }
  return nullptr;
}

Stream::Stream(Kind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {
  Rng rng(mix(seed, 0xba5e));
  const auto add_base = [&](int n) {
    Base base{diameter_capped(n, 2, 0.15, rng)};
    base.bound = path_lower_bound(
        instance_from_distances(all_pairs_distances(base.graph, 1), PVec::L21()));
    bases_.push_back(std::move(base));
  };
  if (kind == Kind::WarmRelabel) {
    for (const int n : kWarmSizes) {
      for (int b = 0; b < kWarmBasesPerSize; ++b) add_base(n);
    }
    double total = 0;
    for (int rank = 0; rank < kWarmBasesPerSize; ++rank) {
      total += 1.0 / (rank + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& cdf : zipf_cdf_) cdf /= total;
  } else if (kind != Kind::ColdMixed) {
    for (int b = 0; b < kLightBases; ++b) add_base(kColdN);
  }
}

Job Stream::relabeled(const Base& base, Rng& rng) const {
  Job job;
  job.request.graph = relabel(base.graph, rng.permutation(base.graph.n()));
  job.bound = base.bound;
  job.light = true;
  return job;
}

Job Stream::make(std::uint64_t lane, std::uint64_t index) const {
  Rng rng(mix(mix(seed_, lane), index));
  Job job;
  switch (kind_) {
    case Kind::WarmRelabel: {
      const double size_draw = rng.uniform01();
      int size = 0;
      while (size_draw >= kWarmSizeCdf[size]) ++size;
      const double rank_draw = rng.uniform01();
      int rank = 0;
      while (rank + 1 < kWarmBasesPerSize &&
             rank_draw >= zipf_cdf_[static_cast<std::size_t>(rank)]) {
        ++rank;
      }
      job = relabeled(bases_[static_cast<std::size_t>(size * kWarmBasesPerSize + rank)], rng);
      break;
    }
    case Kind::ColdMixed:
      job = cold_mix(rng);
      job.light = job.family != Family::Cograph;
      break;
    case Kind::LoopbackMixed:
      job = rng.uniform01() < 0.88 ? relabeled(bases_[rng.uniform_index(bases_.size())], rng)
                                   : cold_mix(rng);
      break;
    case Kind::OverloadOpen:
      job = rng.uniform01() < 0.75 ? relabeled(bases_[rng.uniform_index(bases_.size())], rng)
                                   : cold_job(Family::Cograph, rng);
      break;
  }
  job.request.id = (lane << 40) + index + 1;
  return job;
}

std::vector<Job> Stream::prep_jobs() const {
  std::vector<Job> jobs;
  if (kind_ == Kind::ColdMixed) {
    for (std::uint64_t i = 0; i < kColdPrepJobs; ++i) jobs.push_back(make(kPrepLane, i));
    return jobs;
  }
  for (std::size_t b = 0; b < bases_.size(); ++b) {
    Job job;
    job.request.graph = bases_[b].graph;
    job.request.id = (kPrepLane << 40) + b + 1;
    job.bound = bases_[b].bound;
    job.light = true;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Verdict verify(const Job& job, const SolveResponse& response) {
  Verdict verdict;
  const Graph& graph = job.request.graph;
  const PVec& p = job.request.p;
  try {
    if (response.labeling.labels.size() != static_cast<std::size_t>(graph.n())) {
      verdict.why = "label count differs from the vertex count";
      return verdict;
    }
    const DistanceMatrix dist = all_pairs_distances(graph, 1);
    if (!is_valid_labeling(graph, dist, p, response.labeling)) {
      verdict.why = "not a valid L(p)-labeling of the caller's graph";
      return verdict;
    }
    if (response.labeling.span() != response.span) {
      verdict.why = "reported span differs from the labels' span";
      return verdict;
    }
    verdict.bound =
        job.bound >= 0 ? job.bound : path_lower_bound(instance_from_distances(dist, p));
    if (response.span < verdict.bound) {
      verdict.why = "span below the path lower bound";
      return verdict;
    }
  } catch (const std::exception& e) {
    verdict.why = e.what();
    return verdict;
  }
  verdict.valid = true;
  return verdict;
}

BatchSolver::Options lptspd_solver_options() {
  BatchSolver::Options options;
  options.portfolio.deadline = std::chrono::milliseconds{250};
  options.cache.capacity = 4096;
  options.use_cache = true;
  options.request_workers = 0;
  options.engine_workers = 0;
  options.max_pending_requests = 256;
  options.seed = 1;
  options.trace_capacity = 64;
  options.trace_threshold = std::chrono::milliseconds{0};
  options.tuner.enabled = true;
  options.portfolio.learn = true;
  options.tuner.reprobe_every = 16;
  options.tuner.decay_every = 64;
  options.tuner.effort_update_every = 32;
  options.max_pending_work_ns = 0;
  options.store_degraded_after_failures = 3;
  options.store_reopen_probe_interval = std::chrono::milliseconds{1000};
  return options;
}

LabelingServer::Options lptspd_server_options() {
  const std::size_t max_pending = lptspd_solver_options().max_pending_requests;
  LabelingServer::Options options;
  options.bind_address = "127.0.0.1";
  options.port = 0;
  options.max_connections = 64;
  options.max_inflight_per_connection = 64;
  options.brownout_heuristic_pending = max_pending / 2;
  options.brownout_reject_pending = max_pending * 3 / 4;
  options.brownout_retry_after_ms = 250;
  return options;
}

}  // namespace perfbench
