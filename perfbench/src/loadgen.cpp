#include "loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/rng.hpp"

namespace perfbench {

using namespace lptsp;

namespace {

/// Closed loops run in slices: at a slice's end every caller lets its
/// in-flight requests finish, the slice's outcomes are checked untimed,
/// and the next slice starts. That bounds what is held for the check
/// without putting the check inside any timed interval.
constexpr double kSliceSeconds = 1.0;
/// Offered load of the open loop (Poisson arrivals).
constexpr double kOpenRatePerSecond = 600;
constexpr std::size_t kCheckerThreads = 4;

SolveResponse failure_response(std::uint64_t id, SolveStatus status, const std::string& what) {
  SolveResponse response;
  response.id = id;
  response.status = status;
  response.message = what;
  return response;
}

double micros(std::uint64_t from, std::uint64_t to) {
  return to > from ? static_cast<double>(to - from) / 1e3 : 0.0;
}

std::vector<Outcome> flatten(std::vector<std::vector<Outcome>>& parts) {
  std::vector<Outcome> all;
  for (std::vector<Outcome>& part : parts) {
    for (Outcome& outcome : part) all.push_back(std::move(outcome));
  }
  return all;
}

double slice_wall_s(std::uint64_t start, const std::vector<std::uint64_t>& last_done) {
  const std::uint64_t end = *std::max_element(last_done.begin(), last_done.end());
  return micros(start, std::max(start, end)) / 1e6;
}

/// One closed-loop slice in-process: each caller submits, waits, repeats.
std::vector<Outcome> inprocess_slice(BatchSolver& solver, const Stream& stream,
                                     std::vector<std::uint64_t>& next_index,
                                     std::uint64_t slice_end, double& wall_s) {
  const std::size_t callers = next_index.size();
  std::vector<std::vector<Outcome>> outcomes(callers);
  std::vector<std::uint64_t> last_done(callers, 0);
  const std::uint64_t start = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < callers; ++lane) {
    threads.emplace_back([&, lane] {
      std::uint64_t previous_done = 0;
      while (now_ns() < slice_end) {
        const std::uint64_t index = next_index[lane]++;
        Job job = stream.make(lane, index);
        const std::uint64_t id = job.request.id;
        const std::uint64_t submitted = now_ns();
        SolveResponse response;
        try {
          response = solver.submit(std::move(job.request)).get();
        } catch (const std::exception& e) {
          response = failure_response(id, SolveStatus::EngineFailure, e.what());
        }
        const std::uint64_t done = now_ns();
        // Closed-loop lag: the generator's own time between the previous
        // answer and this submission.
        outcomes[lane].push_back({lane, index, std::move(response), micros(submitted, done),
                                  previous_done != 0 ? micros(previous_done, submitted) : -1.0,
                                  true});
        previous_done = done;
      }
      last_done[lane] = previous_done;
    });
  }
  for (std::thread& thread : threads) thread.join();
  wall_s = slice_wall_s(start, last_done);
  return flatten(outcomes);
}

/// One closed-loop slice over loopback: each connection keeps `window`
/// pipelined requests in flight and refills a slot as its answer arrives.
std::vector<Outcome> loopback_slice(Service& service, const Stream& stream, int window,
                                    std::vector<std::uint64_t>& next_index,
                                    std::uint64_t slice_end, double& wall_s) {
  const std::size_t connections = service.clients.size();
  std::vector<std::vector<Outcome>> outcomes(connections);
  std::vector<std::uint64_t> last_done(connections, 0);
  const std::uint64_t start = now_ns();
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < connections; ++lane) {
    threads.emplace_back([&, lane] {
      LabelingClient& client = *service.clients[lane];
      struct Pending {
        std::uint64_t id, index, submitted, freed;
      };
      std::vector<Pending> inflight;
      std::uint64_t previous_done = 0;
      const auto submit_one = [&](std::uint64_t freed) {
        const std::uint64_t index = next_index[lane]++;
        const Job job = stream.make(lane, index);
        inflight.push_back({job.request.id, index, now_ns(), freed});
        client.submit(job.request);
      };
      try {
        for (int k = 0; k < window && now_ns() < slice_end; ++k) submit_one(0);
        while (!inflight.empty()) {
          SolveResponse response = client.next();
          const std::uint64_t done = now_ns();
          const auto it = std::find_if(inflight.begin(), inflight.end(),
                                       [&](const Pending& p) { return p.id == response.id; });
          if (it == inflight.end()) throw std::runtime_error("answer to an unknown request id");
          const Pending pending = *it;
          inflight.erase(it);
          outcomes[lane].push_back(
              {lane, pending.index, std::move(response), micros(pending.submitted, done),
               pending.freed != 0 ? micros(pending.freed, pending.submitted) : -1.0, true});
          previous_done = done;
          if (done < slice_end) submit_one(done);
        }
      } catch (const std::exception& e) {
        for (const Pending& pending : inflight) {
          outcomes[lane].push_back(
              {lane, pending.index,
               failure_response(pending.id, SolveStatus::TransportDisconnected, e.what()), 0,
               -1.0, true});
        }
      }
      last_done[lane] = previous_done;
    });
  }
  for (std::thread& thread : threads) thread.join();
  wall_s = slice_wall_s(start, last_done);
  return flatten(outcomes);
}

/// One connection of the open loop: the generator thread submits on it,
/// a reader thread collects its answers.
struct OpenConnection {
  struct Pending {
    std::uint64_t index = 0;
    std::uint64_t due = 0;
    double lag_us = 0;
    bool measured = true;
  };
  LabelingClient* client = nullptr;
  std::mutex mutex;
  std::condition_variable wake;
  // Guarded by mutex:
  std::unordered_map<std::uint64_t, Pending> inflight;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool closed = false;  ///< the generator has sent its last request
  std::vector<Outcome> outcomes;
};

void read_answers(OpenConnection& conn) {
  while (true) {
    {
      std::unique_lock lock(conn.mutex);
      conn.wake.wait(lock, [&] { return conn.received < conn.sent || conn.closed; });
      if (conn.received >= conn.sent) return;  // closed and drained
    }
    SolveResponse response;
    try {
      response = conn.client->next();
    } catch (const std::exception& e) {
      const std::lock_guard lock(conn.mutex);
      for (const auto& [id, pending] : conn.inflight) {
        conn.outcomes.push_back(
            {0, pending.index, failure_response(id, SolveStatus::TransportDisconnected, e.what()),
             0, pending.lag_us, pending.measured});
      }
      conn.inflight.clear();
      conn.received = conn.sent;
      continue;
    }
    const std::uint64_t done = now_ns();
    const std::lock_guard lock(conn.mutex);
    const auto it = conn.inflight.find(response.id);
    if (it == conn.inflight.end()) continue;
    const OpenConnection::Pending pending = it->second;
    conn.inflight.erase(it);
    ++conn.received;
    // Open-loop latency runs from the request's due time, so a stalled
    // generator or a full socket shows up in the latency, not hidden.
    conn.outcomes.push_back({0, pending.index, std::move(response), micros(pending.due, done),
                             pending.lag_us, pending.measured});
  }
}

/// The open loop: one generator thread sends on a seeded Poisson schedule,
/// round-robin over the connections, whatever the service's state.
std::vector<Outcome> open_loop(Service& service, const Stream& stream, const RunConfig& config) {
  std::vector<std::unique_ptr<OpenConnection>> connections;
  for (auto& client : service.clients) {
    connections.push_back(std::make_unique<OpenConnection>());
    connections.back()->client = client.get();
  }
  std::vector<std::thread> readers;
  for (auto& conn : connections) readers.emplace_back(read_answers, std::ref(*conn));

  Rng arrivals(config.seed * 0x9e3779b97f4a7c15ULL + 0xa77);
  const double total_s = config.warmup_s + config.measure_s;
  // The whole schedule is fixed up front from the seed; the first request
  // is due 20 ms from now so that generating it cannot make it late.
  const std::uint64_t start = now_ns() + 20'000'000;
  const std::uint64_t warmup_end = start + static_cast<std::uint64_t>(config.warmup_s * 1e9);
  double t = 0;
  for (std::uint64_t index = 0;; ++index) {
    t += -std::log(1.0 - arrivals.uniform01()) / kOpenRatePerSecond;
    if (t >= total_s) break;
    const std::uint64_t due = start + static_cast<std::uint64_t>(t * 1e9);
    const Job job = stream.make(0, index);
    OpenConnection& conn = *connections[index % connections.size()];
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
    const double lag_us = micros(due, now_ns());
    const bool measured = due >= warmup_end;
    {
      const std::lock_guard lock(conn.mutex);
      conn.inflight[job.request.id] = {index, due, lag_us, measured};
      ++conn.sent;
    }
    conn.wake.notify_one();
    try {
      conn.client->submit(job.request);
    } catch (const std::exception& e) {
      const std::lock_guard lock(conn.mutex);
      if (conn.inflight.erase(job.request.id) > 0) {
        --conn.sent;
        conn.outcomes.push_back(
            {0, index,
             failure_response(job.request.id, SolveStatus::TransportDisconnected, e.what()), 0,
             lag_us, measured});
      }
    }
  }
  for (auto& conn : connections) {
    {
      const std::lock_guard lock(conn->mutex);
      conn->closed = true;
    }
    conn->wake.notify_all();
  }
  for (std::thread& reader : readers) reader.join();
  std::vector<std::vector<Outcome>> parts;
  for (auto& conn : connections) parts.push_back(std::move(conn->outcomes));
  return flatten(parts);
}

void fold(const Stream& stream, const Traits& traits, const RunConfig& config,
          const Outcome& outcome, Tally& tally) {
  const SolveResponse& response = outcome.response;
  const Job job = stream.make(outcome.lane, outcome.index);
  ++tally.attempted;
  if (job.light) ++tally.lights;
  if (outcome.lag_us >= 0) tally.lag_us.push_back(outcome.lag_us);
  // Typed overload rejections are the designed answer on the overload
  // workload: they count against ok_fraction, not as failed operations.
  if (response.status == SolveStatus::RejectedOverload && traits.open_loop) {
    ++tally.rejected;
    return;
  }
  if (!response.ok()) {
    ++tally.failed;
    if (tally.first_failure.empty()) {
      tally.first_failure = std::string(status_name_cstr(response.status)) + ": " + response.message;
    }
    return;
  }
  const Verdict verdict = verify(job, response);
  if (!verdict.valid) {
    ++tally.failed;
    if (tally.correct) {
      tally.violation = config.label + " lane=" + std::to_string(outcome.lane) +
                        " index=" + std::to_string(outcome.index) + ": " + verdict.why;
    }
    tally.correct = false;
    return;
  }
  ++tally.ok;
  if (response.optimal) ++tally.optimal;
  if (response.source == ResponseSource::Coalesced) ++tally.coalesced;
  tally.span_sum += static_cast<double>(response.span);
  tally.bound_sum += static_cast<double>(verdict.bound);
  tally.latency_us.push_back(outcome.latency_us);
  if (job.light && outcome.latency_us <= config.light_limit_us) ++tally.lights_good;
  if (response.server_service_ns != 0) {
    const auto server_ns = static_cast<double>(response.server_queue_ns + response.server_service_ns);
    tally.queue_ns.push_back(static_cast<double>(response.server_queue_ns));
    tally.transit_ns.push_back(std::max(0.0, outcome.latency_us * 1e3 - server_ns));
  }
}

}  // namespace

void Tally::merge(Tally&& other) {
  attempted += other.attempted;
  ok += other.ok;
  failed += other.failed;
  rejected += other.rejected;
  optimal += other.optimal;
  coalesced += other.coalesced;
  lights += other.lights;
  lights_good += other.lights_good;
  span_sum += other.span_sum;
  bound_sum += other.bound_sum;
  wall_s += other.wall_s;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(latency_us, other.latency_us);
  append(lag_us, other.lag_us);
  append(queue_ns, other.queue_ns);
  append(transit_ns, other.transit_ns);
  if (correct && !other.correct) violation = std::move(other.violation);
  correct = correct && other.correct;
  if (first_failure.empty()) first_failure = std::move(other.first_failure);
}

void Service::stop() {
  for (auto& client : clients) client->close();
  clients.clear();
  if (server) server->stop();
  server.reset();
  solver.reset();
}

Service start_service(const Traits& traits, const std::string& store_path) {
  Service service;
  BatchSolver::Options options = lptspd_solver_options();
  if (traits.durable_store) options.store_path = store_path;
  service.solver = std::make_unique<BatchSolver>(options);
  if (traits.net) {
    service.server = std::make_unique<LabelingServer>(*service.solver, lptspd_server_options());
    service.server->start();
    for (int c = 0; c < traits.callers; ++c) {
      service.clients.push_back(std::make_unique<LabelingClient>(ClientOptions{}));
      service.clients.back()->connect("127.0.0.1", service.server->port());
    }
  }
  return service;
}

void settle(const Stream& stream, const Traits& traits, const RunConfig& config,
            std::vector<Outcome>& outcomes, Tally& measured, Tally& warmup) {
  std::vector<Tally> parts(2 * kCheckerThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kCheckerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < outcomes.size(); i += kCheckerThreads) {
        fold(stream, traits, config, outcomes[i], parts[2 * t + (outcomes[i].measured ? 0 : 1)]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kCheckerThreads; ++t) {
    measured.merge(std::move(parts[2 * t]));
    warmup.merge(std::move(parts[2 * t + 1]));
  }
  outcomes.clear();
}

Tally drive(Service& service, const Stream& stream, const Traits& traits, const RunConfig& config) {
  Tally measured;
  Tally warmup;
  if (traits.open_loop) {
    std::vector<Outcome> outcomes = open_loop(service, stream, config);
    settle(stream, traits, config, outcomes, measured, warmup);
    measured.wall_s = config.measure_s;
  } else {
    std::vector<std::uint64_t> next_index(static_cast<std::size_t>(traits.callers), 0);
    for (const bool counted : {false, true}) {
      const double total_s = counted ? config.measure_s : config.warmup_s;
      for (double planned = 0; planned < total_s - 1e-9; planned += kSliceSeconds) {
        const std::uint64_t slice_end =
            now_ns() + static_cast<std::uint64_t>(std::min(kSliceSeconds, total_s - planned) * 1e9);
        double wall_s = 0;
        std::vector<Outcome> outcomes =
            traits.net ? loopback_slice(service, stream, traits.window, next_index, slice_end, wall_s)
                       : inprocess_slice(*service.solver, stream, next_index, slice_end, wall_s);
        for (Outcome& outcome : outcomes) outcome.measured = counted;
        settle(stream, traits, config, outcomes, measured, warmup);
        if (counted) measured.wall_s += wall_s;
      }
    }
  }
  if (measured.correct && !warmup.correct) {
    measured.correct = false;
    measured.violation = warmup.violation;
  }
  if (measured.first_failure.empty()) measured.first_failure = warmup.first_failure;
  return measured;
}

}  // namespace perfbench
