#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "service/batch_solver.hpp"
#include "tsp/instance.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Kind { WarmRelabel, ColdMixed, LoopbackMixed, OverloadOpen };

/// What distinguishes the four workloads, in one place.
struct Traits {
  const char* name;
  Kind kind;
  bool net;            ///< served over TCP loopback (else in-process submit)
  bool open_loop;      ///< seeded arrival schedule (else closed loop)
  bool durable_store;  ///< the service runs with a durable store attached
  int callers;         ///< caller threads (in-process) or connections (net)
  int window;          ///< pipelined requests per connection (closed net loop)
};

/// nullptr for an unknown workload name.
const Traits* find_traits(const std::string& name);

enum class Family { Relabel, ErDiam2, ErDiam3, Cograph };

/// One generated request plus what the output check needs.
struct Job {
  lptsp::SolveRequest request;
  Family family = Family::Relabel;
  bool light = false;        ///< counted by light_goodput_fraction
  lptsp::Weight bound = -1;  ///< path lower bound when known up front; -1 = compute
};

/// The seeded request stream of one workload. Request `index` of lane
/// `lane` is a pure function of (seed, lane, index), so the output check
/// and the traced replay regenerate exactly what the service was sent.
class Stream {
 public:
  Stream(Kind kind, std::uint64_t seed);

  [[nodiscard]] Job make(std::uint64_t lane, std::uint64_t index) const;

  /// Requests solved before anything is timed: the warm_relabel pool or
  /// the prewarmed light bases; for cold_mixed, a few cold requests.
  [[nodiscard]] std::vector<Job> prep_jobs() const;

 private:
  struct Base {
    lptsp::Graph graph;
    lptsp::Weight bound = 0;
  };
  [[nodiscard]] Job relabeled(const Base& base, lptsp::Rng& rng) const;

  Kind kind_;
  std::uint64_t seed_;
  std::vector<Base> bases_;
  std::vector<double> zipf_cdf_;
};

/// Outcome of re-verifying one Ok response on the caller's own graph.
struct Verdict {
  bool valid = false;
  lptsp::Weight bound = 0;  ///< the path lower bound the span was held to
  std::string why;
};

/// Fresh BFS + is_valid_labeling on the caller's graph, span consistency,
/// and span >= the path lower bound of the reduced instance.
Verdict verify(const Job& job, const lptsp::SolveResponse& response);

/// lptspd's default options (tools/lptspd.cpp run without flags), except
/// that the server binds an ephemeral port.
lptsp::BatchSolver::Options lptspd_solver_options();
lptsp::LabelingServer::Options lptspd_server_options();

}  // namespace perfbench
