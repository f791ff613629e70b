#include "ledger.hpp"

#include <array>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/labeling.hpp"
#include "core/order_labeling.hpp"
#include "core/reduction.hpp"
#include "graph/operations.hpp"
#include "net/wire.hpp"
#include "obs/profile.hpp"
#include "service/canonical_key.hpp"
#include "service/portfolio.hpp"
#include "service/solve_cache.hpp"
#include "service/tuner.hpp"
#include "store/backend.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace lptsp;

namespace {

enum class Stage : std::uint8_t {
  Request,
  EncodeRequest,
  DecodeRequest,
  CanonicalForm,
  ResultKey,
  FindResult,
  Relabel,
  FindReduction,
  AllPairs,
  PutReduction,
  Instance,
  Race,
  Winner,
  Verify,
  PutResult,
  MapLabels,
  EncodeResponse,
  DecodeResponse,
  Count,
};
constexpr std::size_t kStages = static_cast<std::size_t>(Stage::Count);

/// Span names: the layer (module) and the public function each span wraps.
constexpr const char* kStageNames[kStages] = {
    "request",
    "wire.encode_request",
    "wire.decode_request",
    "canonical_key.canonical_form",
    "canonical_key.result_key",
    "solve_cache.find_result",
    "graph.relabel",
    "solve_cache.find_reduction",
    "bfs.all_pairs",
    "solve_cache.put_reduction",
    "reduction.instance_from_distances",
    "portfolio.race",
    "portfolio.winner",
    "labeling.verify",
    "solve_cache.put_result",
    "canonical_key.map_labels",
    "wire.encode_response",
    "wire.decode_response",
};

constexpr std::size_t at(Stage stage) { return static_cast<std::size_t>(stage); }

/// Request ids of prep requests carry this bit: their spans feed the stage
/// timings, not the per-request e2e and unattributed figures.
constexpr std::uint64_t kPrepBit = 1ULL << 63;
/// Spans written to the trace file; all of them stay in memory for the stats.
constexpr std::size_t kSpansWritten = 20'000;
/// In-process workloads never touch the wire. Every 8th of their replayed
/// requests also runs the wire codec on its request and response, outside
/// the request's span, so the wire layer is measured on every workload.
constexpr std::uint64_t kWireProbeEvery = 8;
/// The ROADMAP's bound on the unattributed share of e2e time.
constexpr double kUnattributedTarget = 0.10;

struct Span {
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
  Stage stage = Stage::Request;
  /// Runs beside its parent on another thread (the winning engine attempt):
  /// dumped, but not subtracted from the parent's self time.
  bool nested = false;
  /// Outside every request span (the wire probe of in-process workloads).
  bool probe = false;
  std::uint32_t tag = 0;  ///< request spans: vertex count * 4 + family
};

/// One thread's span log.
class Recorder {
 public:
  Recorder() { spans_.reserve(1 << 16); }

  std::int32_t begin(Stage stage, std::int32_t parent, std::uint64_t request) {
    Span span;
    span.request = request;
    span.parent = parent;
    span.stage = stage;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::uint64_t end(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    return span.end_ns - span.start_ns;
  }

  Span& operator[](std::int32_t index) { return spans_[static_cast<std::size_t>(index)]; }
  void add(const Span& span) { spans_.push_back(span); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// What one replayed request did, read at the layer boundaries.
struct RaceNote {
  bool inexact = false;
  std::size_t key_bytes = 0;
  bool raced = false;
  double race_ns = 0;
  double winner_ns = 0;
  bool deadline_bound = false;
  bool exact_win = false;
  obs::EngineWork work;
  obs::EngineWork finished;
  obs::EngineWork cancelled;
};

/// The serving pipeline assembled from the public pieces BatchSolver is
/// built from: solve cache with a durable store, engine pool, portfolio and
/// tuner, all with lptspd's default options. Opening it warm-loads the store.
class Pipeline {
 public:
  explicit Pipeline(const std::string& store_path)
      : options_(lptspd_solver_options()),
        cache_(options_.cache),
        tuner_(options_.tuner, options_.portfolio.deadline),
        engine_pool_(options_.engine_workers),
        portfolio_(engine_pool_, options_.portfolio) {
    if (options_.tuner.enabled) portfolio_.attach_tuner(&tuner_);
    PersistentBackend::Options store;
    store.path = store_path;
    std::string error;
    backend_ = PersistentBackend::open(store, error);
    if (backend_ == nullptr) throw std::runtime_error("cannot open the replay store: " + error);
    cache_.attach_backend(backend_);
    const std::uint64_t start = now_ns();
    cache_.warm_from_disk();
    warm_load_ns_ = static_cast<double>(now_ns() - start);
  }

  /// BatchSolver's per-request pipeline for an unpinned request, one span
  /// per layer call.
  SolveResponse solve(const SolveRequest& request, Recorder& rec, std::int32_t parent,
                      RaceNote& note);

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] double warm_load_ns() const noexcept { return warm_load_ns_; }

 private:
  BatchSolver::Options options_;
  SolveCache cache_;
  std::shared_ptr<PersistentBackend> backend_;
  EngineTuner tuner_;
  TaskPool engine_pool_;
  EnginePortfolio portfolio_;
  double warm_load_ns_ = 0;
};

SolveResponse Pipeline::solve(const SolveRequest& request, Recorder& rec, std::int32_t parent,
                              RaceNote& note) {
  const std::uint64_t rid = request.id;
  SolveResponse response;
  response.id = request.id;

  std::int32_t span = rec.begin(Stage::CanonicalForm, parent, rid);
  const CanonicalForm form = canonical_form(request.graph, options_.canonical);
  rec.end(span);
  note.inexact = !form.exact;
  const std::int64_t budget_ms = request.deadline.count() > 0
                                     ? request.deadline.count()
                                     : options_.portfolio.deadline.count();

  std::string rkey;
  if (form.exact) {
    span = rec.begin(Stage::ResultKey, parent, rid);
    rkey = result_key(form, request.p);
    rkey.push_back('E');  // BatchSolver's namespace tag for unpinned requests
    rkey.push_back('\0');
    rec.end(span);
    note.key_bytes = rkey.size();
    span = rec.begin(Stage::FindResult, parent, rid);
    std::shared_ptr<const ResultEntry> entry = cache_.find_result(rkey);
    rec.end(span);
    // BatchSolver's rule: a non-optimal entry raced under a smaller budget
    // is re-solved; anything else is served.
    if (entry && (entry->optimal || entry->deadline_ms == 0 ||
                  (budget_ms != 0 && budget_ms <= entry->deadline_ms))) {
      span = rec.begin(Stage::MapLabels, parent, rid);
      response.labeling.labels = map_labels_from_canonical(form, entry->labels);
      rec.end(span);
      response.status = SolveStatus::Ok;
      response.span = entry->span;
      response.optimal = entry->optimal;
      response.engine = entry->engine;
      response.source = ResponseSource::ResultCache;
      return response;
    }
  }

  span = rec.begin(Stage::Relabel, parent, rid);
  const Graph canon = relabel(request.graph, form.to_canonical);
  rec.end(span);
  std::shared_ptr<const ReductionEntry> reduction;
  std::string gkey;
  if (form.exact) {
    span = rec.begin(Stage::FindReduction, parent, rid);
    gkey = graph_key(form);
    reduction = cache_.find_reduction(gkey);
    rec.end(span);
  }
  if (!reduction) {
    span = rec.begin(Stage::AllPairs, parent, rid);
    DistanceMatrix dist = all_pairs_distances(canon, 1);
    const bool connected = dist.all_finite();
    const int diameter = connected ? dist.max_finite() : 0;
    reduction = std::make_shared<const ReductionEntry>(
        ReductionEntry{std::move(dist), diameter, connected});
    rec.end(span);
    if (form.exact) {
      span = rec.begin(Stage::PutReduction, parent, rid);
      cache_.put_reduction(gkey, reduction);
      rec.end(span);
    }
  }
  if (!reduction->connected || reduction->diameter > request.p.k() ||
      !request.p.satisfies_reduction_condition()) {
    response.status = SolveStatus::DiameterExceedsK;
    response.message = "request outside the Theorem-2 preconditions";
    return response;
  }

  span = rec.begin(Stage::Instance, parent, rid);
  const MetricInstance instance = instance_from_distances(reduction->dist, request.p);
  rec.end(span);

  const std::int32_t race = rec.begin(Stage::Race, parent, rid);
  const PortfolioOutcome raced = portfolio_.race(
      instance, request.deadline.count() > 0 ? std::optional(request.deadline) : std::nullopt);
  note.race_ns = static_cast<double>(rec.end(race));
  note.raced = true;
  note.deadline_bound = note.race_ns >= 0.95 * static_cast<double>(budget_ms) * 1e6;
  note.exact_win = raced.solution.cost >= 0 &&
                   (raced.winner == Engine::HeldKarp || raced.winner == Engine::BranchBound);
  note.work = raced.work;
  for (const EngineAttempt& attempt : raced.attempts) {
    (attempt.finished ? note.finished : note.cancelled).merge(attempt.work);
    if (note.winner_ns == 0 && attempt.engine == raced.winner && attempt.verified &&
        attempt.cost == raced.solution.cost) {
      note.winner_ns = attempt.seconds * 1e9;
    }
  }
  if (note.winner_ns > 0) {
    Span winner;
    winner.request = rid;
    winner.start_ns = rec[race].start_ns;
    winner.end_ns = winner.start_ns + static_cast<std::uint64_t>(note.winner_ns);
    winner.parent = race;
    winner.stage = Stage::Winner;
    winner.nested = true;
    rec.add(winner);
  }
  if (raced.solution.cost < 0) {
    response.status = SolveStatus::EngineFailure;
    response.message = "no portfolio engine produced a verified solution";
    return response;
  }

  span = rec.begin(Stage::Verify, parent, rid);
  Labeling labeling = labeling_from_order(instance, raced.solution.order);
  const bool verified = labeling.span() == raced.solution.cost &&
                        is_valid_labeling(canon, reduction->dist, request.p, labeling);
  rec.end(span);
  if (!verified) {
    response.status = SolveStatus::EngineFailure;
    response.message = "portfolio result failed verification";
    return response;
  }

  const auto entry = std::make_shared<const ResultEntry>(ResultEntry{
      std::move(labeling.labels), raced.solution.cost, raced.optimal, raced.winner, budget_ms});
  if (form.exact) {
    span = rec.begin(Stage::PutResult, parent, rid);
    cache_.put_result(rkey, canon, request.p, entry);
    rec.end(span);
  }
  span = rec.begin(Stage::MapLabels, parent, rid);
  response.labeling.labels = map_labels_from_canonical(form, entry->labels);
  rec.end(span);
  response.status = SolveStatus::Ok;
  response.span = entry->span;
  response.optimal = entry->optimal;
  response.engine = entry->engine;
  response.source = ResponseSource::Solved;
  return response;
}

struct LedgerTally {
  std::uint64_t requests = 0, inexact = 0, keyed = 0, key_bytes = 0;
  std::uint64_t races = 0, deadline_bound = 0, exact_wins = 0;
  double race_ns = 0, winner_ns = 0;
  std::vector<double> winner_samples;
  obs::EngineWork work, cancelled;
  std::uint64_t request_bytes = 0, frames = 0;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string violation;

  void account_race(const RaceNote& note) {
    if (!note.raced) return;
    ++races;
    race_ns += note.race_ns;
    winner_ns += note.winner_ns;
    winner_samples.push_back(note.winner_ns);
    if (note.deadline_bound) ++deadline_bound;
    if (note.exact_win) ++exact_wins;
  }

  void account_request(const RaceNote& note) {
    ++requests;
    if (note.inexact) ++inexact;
    if (note.key_bytes != 0) {
      ++keyed;
      key_bytes += note.key_bytes;
    }
    work.merge(note.work);
    cancelled.merge(note.cancelled);
  }

  void merge(LedgerTally&& other) {
    requests += other.requests;
    inexact += other.inexact;
    keyed += other.keyed;
    key_bytes += other.key_bytes;
    races += other.races;
    deadline_bound += other.deadline_bound;
    exact_wins += other.exact_wins;
    race_ns += other.race_ns;
    winner_ns += other.winner_ns;
    winner_samples.insert(winner_samples.end(), other.winner_samples.begin(),
                          other.winner_samples.end());
    work.merge(other.work);
    cancelled.merge(other.cancelled);
    request_bytes += other.request_bytes;
    frames += other.frames;
    attempted += other.attempted;
    failed += other.failed;
    if (correct && !other.correct) violation = std::move(other.violation);
    correct = correct && other.correct;
  }
};

DecodeResult decode_frame(const std::vector<std::uint8_t>& frame) {
  return decode_payload(frame.data() + 4, frame.size() - 4);
}

/// Replay one request: one root span around the whole pipeline (wire
/// stages included on net workloads), then the output check outside it.
void replay_one(Pipeline& pipeline, const Traits& traits, const Job& job, Recorder& rec,
                LedgerTally& tally, const std::string& label, RaceNote& note) {
  const std::uint64_t rid = job.request.id;
  const std::int32_t root = rec.begin(Stage::Request, -1, rid);
  rec[root].tag = static_cast<std::uint32_t>(job.request.graph.n()) * 4 +
                  static_cast<std::uint32_t>(job.family);
  SolveResponse response;
  if (traits.net) {
    std::vector<std::uint8_t> frame;
    std::int32_t span = rec.begin(Stage::EncodeRequest, root, rid);
    encode_request(frame, job.request);
    rec.end(span);
    tally.request_bytes += frame.size();
    ++tally.frames;
    span = rec.begin(Stage::DecodeRequest, root, rid);
    const DecodeResult inbound = decode_frame(frame);
    rec.end(span);
    if (!inbound.ok()) throw std::runtime_error("request frame did not decode: " + inbound.detail);
    const SolveResponse served = pipeline.solve(inbound.message.request, rec, root, note);
    frame.clear();
    span = rec.begin(Stage::EncodeResponse, root, rid);
    encode_response(frame, served);
    rec.end(span);
    span = rec.begin(Stage::DecodeResponse, root, rid);
    DecodeResult outbound = decode_frame(frame);
    rec.end(span);
    if (!outbound.ok()) throw std::runtime_error("response frame did not decode: " + outbound.detail);
    response = std::move(outbound.message.response);
  } else {
    response = pipeline.solve(job.request, rec, root, note);
  }
  rec.end(root);

  if (!traits.net && rid % kWireProbeEvery == 0) {
    std::vector<std::uint8_t> frame;
    std::int32_t span = rec.begin(Stage::EncodeRequest, -1, rid);
    rec[span].probe = true;
    encode_request(frame, job.request);
    rec.end(span);
    tally.request_bytes += frame.size();
    ++tally.frames;
    frame.clear();
    encode_response(frame, response);
    span = rec.begin(Stage::DecodeResponse, -1, rid);
    rec[span].probe = true;
    const DecodeResult probe = decode_frame(frame);
    rec.end(span);
    if (!probe.ok()) throw std::runtime_error("response frame did not decode: " + probe.detail);
  }

  ++tally.attempted;
  if (!response.ok()) {
    ++tally.failed;
    return;
  }
  const Verdict verdict = verify(job, response);
  if (!verdict.valid) {
    ++tally.failed;
    if (tally.correct) {
      tally.violation = label + " replayed request " + std::to_string(rid & ~kPrepBit) + ": " +
                        verdict.why;
    }
    tally.correct = false;
  }
}

void write_spans(const std::string& path, const std::string& label,
                 const std::vector<Recorder>& recorders) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write the span dump %s\n", path.c_str());
    return;
  }
  std::size_t kept = 0;
  for (const Recorder& recorder : recorders) kept += recorder.spans().size();
  std::fprintf(file, "{\"ledger\":\"%s\",\"spans_kept\":%zu,\"spans_written\":%zu}\n",
               label.c_str(), kept, std::min(kept, kSpansWritten));
  std::size_t written = 0;
  for (std::size_t thread = 0; thread < recorders.size(); ++thread) {
    const std::vector<Span>& spans = recorders[thread].spans();
    for (std::size_t i = 0; i < spans.size() && written < kSpansWritten; ++i, ++written) {
      const Span& s = spans[i];
      std::fprintf(file,
                   "{\"thread\":%zu,\"span\":%zu,\"parent\":%d,\"request\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu%s%s}\n",
                   thread, i, s.parent, static_cast<unsigned long long>(s.request),
                   kStageNames[at(s.stage)], static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.nested ? ",\"nested\":true" : "",
                   s.probe ? ",\"probe\":true" : "");
    }
  }
  std::fclose(file);
}

const char* family_name(std::uint32_t family) {
  switch (family) {
    case 0: return "relabel";
    case 1: return "er_diam2";
    case 2: return "er_diam3";
    default: return "cograph";
  }
}

std::string format_us(double ns) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.1f", ns / 1e3);
  return buffer;
}

}  // namespace

LedgerResult run_ledger(const Traits& traits, const Stream& stream, const LedgerConfig& config) {
  const auto callers = static_cast<std::size_t>(traits.callers);
  // One recorder and tally per replay thread, plus one for the prep pass.
  std::vector<Recorder> recorders(callers + 1);
  std::vector<LedgerTally> tallies(callers + 1);
  obs::EngineWork baseline;
  std::remove(config.store_path.c_str());
  {
    // Prep, single-threaded in stream order: fills the replay's own durable
    // store, and its finished engine attempts give the work baseline.
    Pipeline prep(config.store_path);
    for (Job& job : stream.prep_jobs()) {
      job.request.id |= kPrepBit;
      RaceNote note;
      replay_one(prep, traits, job, recorders[callers], tallies[callers], config.label, note);
      tallies[callers].account_race(note);
      baseline.merge(note.finished);
    }
  }
  Pipeline pipeline(config.store_path);  // reopens the store; its warm load is timed
  const CacheStats before = pipeline.cache_stats();
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(config.seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < callers; ++lane) {
    threads.emplace_back([&, lane] {
      LedgerTally& tally = tallies[lane];
      try {
        for (std::uint64_t index = 0; now_ns() < end; ++index) {
          const Job job = stream.make(lane, index);
          RaceNote note;
          replay_one(pipeline, traits, job, recorders[lane], tally, config.label, note);
          tally.account_race(note);
          tally.account_request(note);
        }
      } catch (const std::exception& e) {
        ++tally.failed;
        if (tally.correct) tally.violation = config.label + ": replay failed: " + e.what();
        tally.correct = false;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const CacheStats after = pipeline.cache_stats();

  LedgerTally total;
  for (LedgerTally& tally : tallies) total.merge(std::move(tally));

  // Stage durations over every span; e2e and unattributed over measured
  // request spans; per size/family groups for the breakdown lines.
  std::array<std::vector<double>, kStages> durations;
  std::vector<double> unattributed;
  double e2e_sum = 0;
  double unattributed_sum = 0;
  struct Group {
    std::vector<double> e2e;
    std::array<std::vector<double>, kStages> stages;
  };
  std::map<std::uint64_t, Group> groups;
  LedgerResult result;
  for (const Recorder& recorder : recorders) {
    const std::vector<Span>& spans = recorder.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      const auto ns = static_cast<double>(span.end_ns - span.start_ns);
      durations[at(span.stage)].push_back(ns);
      if (span.parent >= 0 && !span.nested) child_ns[static_cast<std::size_t>(span.parent)] += ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& root = spans[i];
      if (root.stage != Stage::Request) continue;
      const bool prep = (root.request & kPrepBit) != 0;
      const auto ns = static_cast<double>(root.end_ns - root.start_ns);
      if (!prep) {
        result.e2e_ns.push_back(ns);
        unattributed.push_back(ns - child_ns[i]);
        e2e_sum += ns;
        unattributed_sum += ns - child_ns[i];
      }
      Group& group = groups[(prep ? 1ULL << 32 : 0) | root.tag];
      group.e2e.push_back(ns);
      for (std::size_t j = i + 1; j < spans.size() && spans[j].stage != Stage::Request; ++j) {
        if (spans[j].parent >= 0) {
          group.stages[at(spans[j].stage)].push_back(
              static_cast<double>(spans[j].end_ns - spans[j].start_ns));
        }
      }
    }
  }
  write_spans(config.trace_path, config.label, recorders);

  std::vector<Metric>& m = result.metrics;
  const auto stage = [&](const std::string& name, Stage s) {
    add_percentiles(m, name, "", durations[at(s)], "ns");
  };
  const auto requests = static_cast<double>(total.requests);
  stage("canonical_key.canonical_form_ns", Stage::CanonicalForm);
  m.push_back({"canonical_key.inexact_fraction", ratio(total.inexact, requests), "fraction",
               total.requests});
  stage("canonical_key.result_key_ns", Stage::ResultKey);
  m.push_back({"canonical_key.key_bytes", ratio(total.key_bytes, total.keyed), "bytes",
               total.keyed});
  stage("solve_cache.find_result_ns", Stage::FindResult);
  const double result_probes = static_cast<double>((after.result_hits - before.result_hits) +
                                                   (after.result_misses - before.result_misses));
  const double reduction_probes =
      static_cast<double>((after.reduction_hits - before.reduction_hits) +
                          (after.reduction_misses - before.reduction_misses));
  m.push_back({"solve_cache.result_hit_ratio",
               ratio(static_cast<double>(after.result_hits - before.result_hits), result_probes),
               "fraction", static_cast<std::size_t>(result_probes)});
  m.push_back({"solve_cache.reduction_hit_ratio",
               ratio(static_cast<double>(after.reduction_hits - before.reduction_hits),
                     reduction_probes),
               "fraction", static_cast<std::size_t>(reduction_probes)});
  stage("solve_cache.put_result_ns", Stage::PutResult);
  m.push_back({"store.warm_load_ns", pipeline.warm_load_ns(), "ns", 1});
  stage("bfs.all_pairs_ns", Stage::AllPairs);
  stage("reduction.instance_from_distances_ns", Stage::Instance);
  stage("portfolio.race_ns", Stage::Race);
  add_percentiles(m, "portfolio.winner_ns", "", total.winner_samples, "ns");
  m.push_back({"portfolio.race_wait_ratio", ratio(total.race_ns, total.winner_ns), "ratio",
               total.races});
  m.push_back({"portfolio.deadline_bound_fraction", ratio(total.deadline_bound, total.races),
               "fraction", total.races});
  m.push_back({"portfolio.exact_win_fraction", ratio(total.exact_wins, total.races), "fraction",
               total.races});
  stage("labeling.verify_ns", Stage::Verify);
  const auto per_request = [&](const char* name, std::uint64_t count) {
    m.push_back({name, ratio(static_cast<double>(count), requests), "count", total.requests});
  };
  per_request("engine_work.hk_cells", total.work.hk_cells);
  per_request("engine_work.bb_nodes", total.work.bb_nodes);
  per_request("engine_work.lk_kicks", total.work.lk_kicks);
  per_request("engine_work.lk_moves", total.work.lk_moves);
  per_request("engine_work.cancelled_bb_nodes", total.cancelled.bb_nodes);
  per_request("engine_work.cancelled_lk_kicks", total.cancelled.lk_kicks);
  const auto baseline_count = [&](const char* name, std::uint64_t count) {
    m.push_back({name, static_cast<double>(count), "count", 0});
  };
  baseline_count("engine_work.finished_hk_cells", baseline.hk_cells);
  baseline_count("engine_work.finished_bb_nodes", baseline.bb_nodes);
  baseline_count("engine_work.finished_lk_kicks", baseline.lk_kicks);
  baseline_count("engine_work.finished_lk_moves", baseline.lk_moves);
  stage("wire.encode_request_ns", Stage::EncodeRequest);
  stage("wire.decode_response_ns", Stage::DecodeResponse);
  m.push_back({"wire.request_bytes", ratio(total.request_bytes, total.frames), "bytes",
               total.frames});
  std::vector<double> e2e = result.e2e_ns;
  add_percentiles(m, "ledger.e2e_ns", "", e2e, "ns");
  const double share = ratio(unattributed_sum, e2e_sum);
  add_percentiles(m, "unattributed_ns", "", unattributed, "ns");
  m.push_back({"unattributed_share", share, "fraction", result.e2e_ns.size()});

  for (auto& [key, group] : groups) {
    const bool prep = (key >> 32) != 0;
    const auto tag = static_cast<std::uint32_t>(key);
    std::string line = std::string("ledger ") + (prep ? "prep " : "") + family_name(tag % 4) +
                       " n=" + std::to_string(tag / 4) +
                       ": requests=" + std::to_string(group.e2e.size()) +
                       " e2e_p50_us=" + format_us(quantile(group.e2e, 0.5));
    for (std::size_t s = 1; s < kStages; ++s) {
      if (group.stages[s].empty()) continue;
      line += std::string(" ") + kStageNames[s] + "_p50_us=" + format_us(quantile(group.stages[s], 0.5));
    }
    result.breakdown.push_back(line);
  }
  char verdict[160];
  std::snprintf(verdict, sizeof verdict,
                "ledger unattributed share %.2f%% of e2e (target < %.0f%%: %s)", share * 100,
                kUnattributedTarget * 100, share < kUnattributedTarget ? "met" : "MISSED");
  result.breakdown.push_back(verdict);

  result.correct = total.correct;
  result.violation = total.violation;
  result.attempted = total.attempted;
  result.failed = total.failed;
  return result;
}

}  // namespace perfbench
