/// perfbench_ledger — the lptsp serving benchmark.
///
///   perfbench_ledger --workload NAME --seed N --seconds S --trace 0|1 --out DIR
///
/// Drives the labeling service from outside through its public API
/// (BatchSolver in-process; LabelingServer + LabelingClient over TCP
/// loopback) on one of four seeded workloads, checks every answer on the
/// caller's own graph, and prints each metric by name with its unit and
/// sample count. The last stdout line is one JSON object with the keys
/// correct, attempted, failed and metrics. --trace 0 reports the
/// end-to-end metrics. --trace 1 runs an untraced reference phase and then
/// the traced layer replay (ledger.cpp), half the seconds each, and reports
/// the per-layer metrics. DIR receives the run's durable-store files
/// (removed at exit) and the replay's span dump.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "ledger.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

/// setup_s is the median of this many set-ups in one run.
constexpr int kSetups = 15;
constexpr double kWarmupSeconds = 1.0;
/// light_goodput_fraction counts a light request as good when it is
/// answered Ok within this limit.
constexpr double kLightLimitUs = 250'000;
/// An open-loop run is invalid when its generator's p99 lag exceeds this.
constexpr double kMaxGeneratorLagUs = 20'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return args.seconds > 0 && (args.trace == 0 || args.trace == 1) && !args.out.empty();
}

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-44s %18.6f %-9s", metric.name.c_str(), metric.value, metric.unit.c_str());
    if (metric.samples != 0) std::printf(" (n=%zu)", metric.samples);
    std::printf("\n");
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Solve `jobs` as one batch on `solver` (untimed) and check every answer.
void solve_checked(lptsp::BatchSolver& solver, const std::vector<Job>& jobs,
                   const std::string& label, Tally& tally) {
  std::vector<lptsp::SolveRequest> requests;
  for (const Job& job : jobs) requests.push_back(job.request);
  const std::vector<lptsp::SolveResponse> responses = solver.solve_batch(requests);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Verdict verdict =
        responses[i].ok() ? verify(jobs[i], responses[i])
                          : Verdict{false, 0, lptsp::status_name(responses[i].status)};
    if (!verdict.valid && tally.correct) {
      tally.correct = false;
      tally.violation = label + " prep request " + std::to_string(i) + ": " + verdict.why;
    }
  }
}

std::vector<Metric> end_to_end(Tally& tally, std::vector<double>& setup_s) {
  std::vector<Metric> m;
  m.push_back({"throughput_rps", ratio(static_cast<double>(tally.ok), tally.wall_s), "1/s",
               tally.ok});
  add_percentiles(m, "latency", "_us", tally.latency_us, "us");
  m.push_back({"ok_fraction", ratio(tally.ok, tally.attempted), "fraction", tally.attempted});
  m.push_back({"optimal_fraction", ratio(tally.optimal, tally.ok), "fraction", tally.ok});
  m.push_back({"span_over_bound", ratio(tally.span_sum, tally.bound_sum), "ratio", tally.ok});
  m.push_back({"light_goodput_fraction", ratio(tally.lights_good, tally.lights), "fraction",
               tally.lights});
  const std::size_t setups = setup_s.size();
  m.push_back({"setup_s", quantile(setup_s, 0.5), "s", setups});
  m.push_back({"rss_peak_mb", rss_peak_mb(), "MB", 0});
  return m;
}

/// Per-layer numbers read at the service's own boundaries during the
/// untraced reference phase: the response's queue/service echo, its
/// ResponseSource, typed rejections, and the load generator's lag.
void add_boundary_metrics(std::vector<Metric>& m, Tally& reference) {
  add_percentiles(m, "batch_solver.queue_wait_ns", "", reference.queue_ns, "ns");
  m.push_back({"batch_solver.coalesced_fraction", ratio(reference.coalesced, reference.ok),
               "fraction", reference.ok});
  m.push_back({"batch_solver.reject_fraction", ratio(reference.rejected, reference.attempted),
               "fraction", reference.attempted});
  add_percentiles(m, "net.transit_ns", "", reference.transit_ns, "ns");
  const std::size_t lags = reference.lag_us.size();
  m.push_back({"loadgen.lag_p99_us", quantile(reference.lag_us, 0.99), "us", lags});
}

int run(const Traits& traits, const Args& args) {
  namespace fs = std::filesystem;
  const fs::path out(args.out);
  const fs::path dir = out / ("run-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string store = (dir / "service.store").string();
  const std::string label = std::string(traits.name) + " seed=" + std::to_string(args.seed);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", traits.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

  const Stream stream(traits.kind, args.seed);
  Tally prep;
  if (traits.kind == Kind::WarmRelabel) {
    // The pool is solved once and written to the durable store; every
    // set-up below reopens it and re-verifies each record on warm load.
    lptsp::BatchSolver::Options options = lptspd_solver_options();
    options.store_path = store;
    lptsp::BatchSolver solver(options);
    solve_checked(solver, stream.prep_jobs(), label, prep);
  }

  std::vector<double> setup_s;
  Service service;
  for (int i = 0; i < kSetups; ++i) {
    service.stop();
    if (traits.durable_store && traits.kind != Kind::WarmRelabel) fs::remove(store);
    const std::uint64_t start = now_ns();
    service = start_service(traits, store);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  if (traits.kind == Kind::LoopbackMixed || traits.kind == Kind::OverloadOpen) {
    solve_checked(*service.solver, stream.prep_jobs(), label, prep);
  }

  RunConfig config;
  config.label = label;
  config.seed = args.seed;
  config.light_limit_us = kLightLimitUs;
  config.warmup_s = kWarmupSeconds;
  config.measure_s = args.trace == 1 ? args.seconds / 2 : args.seconds;
  Tally tally = drive(service, stream, traits, config);
  service.stop();

  bool correct = prep.correct && tally.correct;
  std::string violation = prep.correct ? tally.violation : prep.violation;
  std::uint64_t attempted = tally.attempted;
  std::uint64_t failed = tally.failed;
  std::vector<double> lags = tally.lag_us;
  const double lag_p99_us = quantile(lags, 0.99);
  if (traits.open_loop && lag_p99_us > kMaxGeneratorLagUs) {
    if (correct) {
      violation = label + ": run invalid, the open-loop generator fell behind (lag p99 " +
                  std::to_string(lag_p99_us) + " us)";
    }
    correct = false;
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = end_to_end(tally, setup_s);
  } else {
    LedgerConfig ledger_config;
    ledger_config.label = label;
    ledger_config.store_path = (dir / "ledger.store").string();
    ledger_config.trace_path =
        (out / ("trace-" + std::string(traits.name) + "-" + std::to_string(args.seed) + ".jsonl"))
            .string();
    ledger_config.seconds = args.seconds / 2;
    LedgerResult ledger = run_ledger(traits, stream, ledger_config);
    metrics = std::move(ledger.metrics);
    add_boundary_metrics(metrics, tally);
    std::vector<double> reference = tally.latency_us;
    const double reference_p50_us = quantile(reference, 0.5);
    const double ledger_p50_us = quantile(ledger.e2e_ns, 0.5) / 1e3;
    metrics.push_back({"reference.latency_p50_us", reference_p50_us, "us", reference.size()});
    // Traced-replay e2e against the untraced service e2e. The replay runs
    // the layers inline, so it skips the request-pool hop and coalescing:
    // the difference can be negative.
    metrics.push_back({"trace_overhead_fraction",
                       ratio(ledger_p50_us - reference_p50_us, reference_p50_us), "fraction",
                       ledger.e2e_ns.size()});
    for (const std::string& line : ledger.breakdown) std::printf("%s\n", line.c_str());
    attempted += ledger.attempted;
    failed += ledger.failed;
    if (correct && !ledger.correct) violation = ledger.violation;
    correct = correct && ledger.correct;
  }
  fs::remove_all(dir);

  std::printf("%s metrics (%s):\n", args.trace == 1 ? "per-layer" : "end-to-end", label.c_str());
  print_metrics(metrics);
  if (traits.open_loop) {
    std::printf("  loadgen lag p99 %.1f us (a run is invalid above %.0f us)\n", lag_p99_us,
                kMaxGeneratorLagUs);
  }
  if (!tally.first_failure.empty()) std::printf("first failure: %s\n", tally.first_failure.c_str());
  if (!correct) std::printf("VIOLATION %s\n", violation.c_str());
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool parsed = false;
  try {
    parsed = parse_args(argc, argv, args);
  } catch (const std::exception&) {
    parsed = false;
  }
  const Traits* traits = parsed ? find_traits(args.workload) : nullptr;
  if (traits == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench_ledger --workload warm_relabel|cold_mixed|loopback_mixed|"
                 "overload_open --seed N --seconds S --trace 0|1 --out DIR\n");
    return 2;
  }
  try {
    return run(*traits, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
