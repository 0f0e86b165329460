// Shared pieces of the lcbench harness: run options, the serving state every
// workload sets up, the metric sink, the span tracer, and the workload entry
// points. See lcbench/README.md for what each workload measures and why.

#ifndef LCBENCH_BENCH_H_
#define LCBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/mscn_estimator.h"
#include "core/model.h"
#include "db/database.h"
#include "exec/executor.h"
#include "sample/sample.h"
#include "serve/net/socket_server.h"
#include "serve/server.h"
#include "util/hash.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace lcbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The host of a small shared VM takes CPUs away for milliseconds to
// seconds at a time (lcbench/README.md). That only ever lowers a rate and
// raises a time, and it hits some samples of a run, not all; a slowdown in
// the program moves every sample. So where a run measures one quantity
// many times, it reports the rate at rank kRateRank and the time at rank
// kTimeRank among its samples.
constexpr double kRateRank = 0.9;
constexpr double kTimeRank = 0.1;
inline double BestRate(std::vector<double> samples) {
  return lc::Quantile(std::move(samples), kRateRank);
}
inline double BestTime(std::vector<double> samples) {
  return lc::Quantile(std::move(samples), kTimeRank);
}

// The latency limit of slo_qps: on a rung's p90 in miss_open, per request
// (goodput) elsewhere. See lcbench/README.md for why no tail is gated.
constexpr double kLatencyLimitUs = 5000.0;

// The independent random streams of a run. StreamSeed gives each
// (run seed, stream, index) its own generator seed, so no two run seeds
// share any stream's inputs.
enum class Stream : uint64_t {
  kMissQueries = 1,
  kArrivals,
  kTemplates,
  kZipfPicks,
  kTrainCorpus,
  kLabelReplay,
};
inline uint64_t StreamSeed(uint64_t run_seed, Stream stream,
                           uint64_t index = 0) {
  constexpr uint64_t kBasis = 0xcbf29ce484222325ULL;  // FNV-1a offset.
  return lc::HashCombine(
      lc::HashCombine(lc::HashCombine(kBasis, run_seed),
                      static_cast<uint64_t>(stream)),
      index);
}

// Sizes of everything the harness generates. `Full()` is what BENCHMARK.json
// measures; `Smoke()` is the tiny size the harness's own tests run.
struct Sizes {
  size_t serve_corpus;     // Labelled queries the serving model trains on.
  int serve_epochs;        // Epochs of the serving model.
  size_t synthetic_eval;   // Labelled synthetic queries for q-errors.
  size_t train_corpus;     // Labelled queries per `train` repetition.
  int train_epochs;        // Epochs per `train` repetition.
  int train_min_reps;      // `train` repetitions whose models give q-errors.
  int setup_reps;          // Set-ups per run; setup_s is their median.
  size_t hit_templates;    // Distinct queries of `hit_zipf`.
  size_t replay_requests;  // Requests replayed through stage functions.
  static Sizes Full();
  static Sizes Smoke();
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Test hook: perturb one expected estimate so the bit-match check must
  // fail the run.
  bool inject_fault = false;
  Sizes sizes = Sizes::Full();
};

// Named metric values, printed as text lines and as the final JSON object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // A human-readable note printed next to the metric (e.g. sample counts).
  void Note(const std::string& text) { notes_.push_back(text); }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> notes_;
};

// Outcome counts of one run, checked against the program's expected outputs.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // ERR, refused or unanswered requests.
  uint64_t mismatches = 0;  // Answers that differ from the reference.
  std::vector<std::string> problems;
  void Problem(const std::string& text) { problems.push_back(text); }
  bool correct() const { return mismatches == 0 && problems.empty(); }
};

// Spans recorded by the harness around its calls into the program's layers.
// Not thread-safe: each thread owns one Tracer. Self time of a span is its
// duration minus the durations of its direct children.
class Tracer {
 public:
  // Records at most `max_spans` spans; later Begin calls record nothing.
  explicit Tracer(bool enabled, size_t max_spans = SIZE_MAX)
      : enabled_(enabled), max_spans_(max_spans) {}
  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (0 when not recording).
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent);
  void End(uint32_t id);

  // Appends another tracer's spans (ids renumbered, parents kept).
  void Absorb(const Tracer& other);
  // Self times in microseconds, per span name.
  std::map<std::string, lc::RunningStat> SelfTimes() const;
  // Appends every span as one tab-separated line.
  void Dump(std::string* out) const;

 private:
  struct Span {
    const char* name;
    uint64_t request;
    uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
    double child_us;
  };
  bool enabled_;
  size_t max_spans_;
  std::deque<Span> spans_;  // No reallocation copies while recording.
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// q-errors of a model on the evaluation workloads.
struct QErrors {
  double p50 = 0.0;
  double p95 = 0.0;
  double joblight_p50 = 0.0;
  bool operator==(const QErrors& other) const = default;
};

// Everything a run serves from: the synthetic IMDb database, the shared
// sample set, the serving model trained on a fixed labelled corpus, the
// labelled evaluation workloads, and the live server behind a unix socket.
// Built anew by every set-up; never moved once built.
struct ServingState {
  lc::Database db;
  lc::Executor executor;
  lc::SampleSet samples;
  lc::Featurizer featurizer;
  lc::Workload corpus;
  lc::Workload synthetic;
  lc::Workload job_light;
  std::shared_ptr<lc::MscnModel> model;
  std::unique_ptr<lc::MscnEstimator> estimator;
  std::unique_ptr<lc::serve::EstimatorServer> server;
  std::unique_ptr<lc::serve::net::SocketServer> net;
  std::string socket_path;
  double label_s = 0.0;
  double train_s = 0.0;
  // q-errors of `model`, and the label/train times measured again during
  // the workload (RemeasureLabelAndTrain).
  QErrors qerrors;
  std::vector<double> relabel_s;
  std::vector<double> retrain_s;

  explicit ServingState(lc::Database database);
  ~ServingState();
  ServingState(const ServingState&) = delete;
  ServingState& operator=(const ServingState&) = delete;
};

// Builds a ServingState (the timed set-up) and reports the corpus
// labelling and training times through the state.
std::unique_ptr<ServingState> SetUp(const Options& options, int rep);

// q-errors of `model` on the evaluation workloads, scored with EstimateAll
// (the serving path's bit-match reference) against the executor's true
// cardinalities.
struct EvalErrors {
  std::vector<double> synthetic;
  std::vector<double> job_light;
};
EvalErrors ScoreErrors(ServingState& state, lc::MscnModel* model);
QErrors Summarize(const EvalErrors& errors);
inline QErrors ScoreModel(ServingState& state, lc::MscnModel* model) {
  return Summarize(ScoreErrors(state, model));
}

// Labels the serving corpus and trains its model again, appending the
// times to state.relabel_s / state.retrain_s. The model must score the
// same q-errors as the set-up's, or `verdict` records a problem.
void RemeasureLabelAndTrain(const Options& options, ServingState& state,
                            Verdict* verdict);

// Workloads. Each fills `metrics` (end-to-end when untraced, per-layer when
// traced) and `verdict`, and leaves its spans in `tracer`.
void RunMissOpen(const Options& options, ServingState& state,
                 Metrics* metrics, Verdict* verdict, Tracer* tracer);
void RunMissClosed(const Options& options, ServingState& state,
                   Metrics* metrics, Verdict* verdict, Tracer* tracer);
void RunHitZipf(const Options& options, ServingState& state,
                Metrics* metrics, Verdict* verdict, Tracer* tracer);
void RunTrain(const Options& options, ServingState& state, Metrics* metrics,
              Verdict* verdict, Tracer* tracer);

// Sends every text once over one pipelined socket connection and checks
// each answer against expected[i]. Returns the number of correct answers.
uint64_t ServeOnce(ServingState& state, const std::vector<std::string>& texts,
                   const std::vector<double>& expected, Verdict* verdict);

// Per-layer metrics of the labelling and training layers, measured by
// replaying them through their public functions on `state`'s inputs.
void TraceLabelAndTrain(const Options& options, ServingState& state,
                        const lc::Workload& corpus, int epochs,
                        Metrics* metrics, Tracer* tracer);

inline std::vector<const lc::LabeledQuery*> QueryPointers(
    const lc::Workload& workload) {
  std::vector<const lc::LabeledQuery*> pointers;
  for (const lc::LabeledQuery& query : workload.queries) {
    pointers.push_back(&query);
  }
  return pointers;
}

// CPU time (user + system) of this process, in microseconds.
double ProcessCpuMicros();

}  // namespace lcbench

#endif  // LCBENCH_BENCH_H_
