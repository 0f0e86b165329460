// lcbench: the repository benchmark. Runs one named workload against the
// real serving stack (EstimatorServer behind a unix-socket SocketServer) or
// the training pipeline, checks every output against the program's own
// reference path, and prints each metric by name with its unit. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//   lcbench --workload <miss_open|miss_closed|hit_zipf|train> --seed <n>
//           --seconds <n> --trace <0|1> [--smoke] [--inject-fault]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --smoke shrinks every generated input (the harness's own tests use it);
// --inject-fault perturbs one expected value so the run must fail.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/trainer.h"
#include "imdb/imdb.h"
#include "nn/kernels.h"
#include "util/parallel.h"
#include "util/str.h"
#include "workload/generator.h"
#include "workload/job_light.h"

extern char** environ;

namespace lcbench {
namespace {

// The experiment defaults of eval::ExperimentConfig, used directly so no run
// goes through the on-disk artifact cache: every set-up starts cold.
constexpr size_t kSampleSize = 128;
constexpr uint64_t kSampleSeed = 2023;
constexpr uint64_t kServeCorpusSeed = 101;
constexpr uint64_t kSyntheticSeed = 202;

bool IsOptimizedBuild(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo";
}

std::string MachineBlock() {
  std::string isa;
  const auto add = [&](bool present, const char* name) {
    if (!present) return;
    isa += lc::Format("%s\"%s\"", isa.empty() ? "" : ",", name);
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  const std::string build_type = LCBENCH_BUILD_TYPE;
  return lc::Format(
      "{\"nproc\": %u, \"isa\": [%s], \"kernel_backend\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"optimized\": %s}",
      std::thread::hardware_concurrency(), isa.c_str(),
      lc::nn::KernelBackendName(lc::nn::ActiveKernelBackend()), build_type.c_str(),
      LCBENCH_COMPILER, IsOptimizedBuild(build_type) ? "true" : "false");
}

// Every LC_* variable other than the POSIX locale categories is a program
// knob (ServerConfig::FromEnv and friends read them); any of them would
// change what is measured.
std::string FirstProgramKnob() {
  static const char* const kLocale[] = {
      "LC_ALL",     "LC_ADDRESS",     "LC_COLLATE", "LC_CTYPE",
      "LC_IDENTIFICATION", "LC_MEASUREMENT", "LC_MESSAGES", "LC_MONETARY",
      "LC_NAME",    "LC_NUMERIC",     "LC_PAPER",   "LC_TELEPHONE",
      "LC_TIME"};
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    const std::string name = text.substr(0, text.find('='));
    if (lc::StartsWith(name, "LC_") &&
        std::find(std::begin(kLocale), std::end(kLocale), name) ==
            std::end(kLocale)) {
      return name;
    }
  }
  return "";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->sizes = Sizes::Smoke();
      continue;
    }
    if (flag == "--inject-fault") {
      options->inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    }
    const std::string value = argv[++i];
    int32_t number = 0;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed" &&
               lc::ParseInt32(value, 0, &number).ok()) {
      options->seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" &&
               lc::ParseInt32(value, 1, &number).ok() && number <= 600) {
      options->seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && lc::ParseInt32(value, 0, &number).ok() &&
               number <= 1) {
      options->trace = number == 1;
      have_trace = true;
    } else {
      std::cerr << "bad argument: " << flag << " " << value << "\n";
      return false;
    }
  }
  const bool known = options->workload == "miss_open" ||
                     options->workload == "miss_closed" ||
                     options->workload == "hit_zipf" ||
                     options->workload == "train";
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      !known) {
    std::cerr << "usage: lcbench --workload "
                 "<miss_open|miss_closed|hit_zipf|train> --seed <n> "
                 "--seconds <n> --trace <0|1> [--smoke] [--inject-fault]\n";
    return false;
  }
  return true;
}

double Median(std::vector<double> values) { return lc::Quantile(values, 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string JsonNumber(double value) { return lc::Format("%.17g", value); }

}  // namespace

Sizes Sizes::Full() {
  return {.serve_corpus = 600,
          .serve_epochs = 30,
          .synthetic_eval = 200,
          .train_corpus = 2000,
          .train_epochs = 30,
          .train_min_reps = 4,
          .setup_reps = 3,
          .hit_templates = 512,
          .replay_requests = 20000};
}

Sizes Sizes::Smoke() {
  return {.serve_corpus = 60,
          .serve_epochs = 2,
          .synthetic_eval = 40,
          .train_corpus = 60,
          .train_epochs = 2,
          .train_min_reps = 1,
          .setup_reps = 1,
          .hit_templates = 64,
          .replay_requests = 300};
}

ServingState::ServingState(lc::Database database)
    : db(std::move(database)),
      executor(&db),
      samples(&db, kSampleSize, kSampleSeed),
      featurizer(&db, lc::FeatureVariant::kBitmaps, kSampleSize) {}

ServingState::~ServingState() {
  if (net) net->Shutdown();
  if (server) server->Shutdown();
  if (!socket_path.empty()) ::unlink(socket_path.c_str());
}

namespace {

lc::Workload LabelServingCorpus(const Options& options, ServingState& state,
                                double* seconds) {
  const Clock::time_point start = Clock::now();
  lc::GeneratorConfig config;
  config.seed = kServeCorpusSeed;
  lc::QueryGenerator generator(&state.db, config);
  lc::Workload corpus = generator.GenerateLabeled(
      state.executor, state.samples, options.sizes.serve_corpus,
      "serving-corpus");
  *seconds = SecondsSince(start);
  return corpus;
}

std::shared_ptr<lc::MscnModel> TrainServingModel(const Options& options,
                                                 ServingState& state,
                                                 const lc::Workload& corpus,
                                                 double* seconds) {
  const Clock::time_point start = Clock::now();
  lc::MscnConfig mscn;
  mscn.epochs = options.sizes.serve_epochs;
  lc::Trainer trainer(&state.featurizer, mscn);
  auto model = std::make_shared<lc::MscnModel>(
      trainer.Train(QueryPointers(corpus), {}, nullptr));
  *seconds = SecondsSince(start);
  return model;
}

}  // namespace

void RemeasureLabelAndTrain(const Options& options, ServingState& state,
                            Verdict* verdict) {
  double label_s = 0.0, train_s = 0.0;
  const lc::Workload corpus = LabelServingCorpus(options, state, &label_s);
  const std::shared_ptr<lc::MscnModel> model =
      TrainServingModel(options, state, corpus, &train_s);
  state.relabel_s.push_back(label_s);
  state.retrain_s.push_back(train_s);
  if (!(ScoreModel(state, model.get()) == state.qerrors)) {
    verdict->Problem("re-trained serving model scores different q-errors; "
                     "labelling or training is not deterministic");
  }
}

std::unique_ptr<ServingState> SetUp(const Options& options, int rep) {
  auto state = std::make_unique<ServingState>(lc::GenerateImdb({}));
  state->corpus = LabelServingCorpus(options, *state, &state->label_s);
  state->model =
      TrainServingModel(options, *state, state->corpus, &state->train_s);

  lc::GeneratorConfig synthetic_config;
  synthetic_config.seed = kSyntheticSeed;
  lc::QueryGenerator synthetic_generator(&state->db, synthetic_config);
  state->synthetic = synthetic_generator.GenerateLabeled(
      state->executor, state->samples, options.sizes.synthetic_eval,
      "synthetic");
  const std::vector<lc::Query> job_light =
      lc::BuildJobLightQueries(state->db);
  state->job_light.queries.resize(job_light.size());
  lc::ParallelFor(0, job_light.size(), 1, [&](size_t i) {
    state->job_light.queries[i] =
        lc::LabelQuery(job_light[i], &state->executor, state->samples);
  });

  // The serving stack at its defaults; only the listen address is set.
  state->estimator = std::make_unique<lc::MscnEstimator>(
      &state->featurizer, state->model, "MSCN");
  state->server = std::make_unique<lc::serve::EstimatorServer>(
      state->estimator.get(), &state->db.schema(), &state->samples);
  state->socket_path = lc::Format(".bench_out/lcbench-%d-%d.sock",
                                  static_cast<int>(::getpid()), rep);
  ::unlink(state->socket_path.c_str());
  lc::serve::net::SocketServerConfig net_config =
      lc::serve::net::SocketServerConfig::FromEnv();
  net_config.listen = {"unix:" + state->socket_path};
  state->net = std::make_unique<lc::serve::net::SocketServer>(
      state->server.get(), net_config);
  const lc::Status started = state->net->Start();
  if (!started.ok()) {
    std::cerr << "socket server failed to start: " << started << "\n";
    std::exit(1);
  }
  return state;
}

EvalErrors ScoreErrors(ServingState& state, lc::MscnModel* model) {
  lc::MscnEstimator direct(&state.featurizer, model, "direct",
                           /*cache_capacity=*/0);
  const auto qerrors = [&](const lc::Workload& workload) {
    const std::vector<const lc::LabeledQuery*> queries =
        QueryPointers(workload);
    const std::vector<double> estimates = direct.EstimateAll(queries, 128);
    std::vector<double> errors;
    for (size_t i = 0; i < queries.size(); ++i) {
      errors.push_back(lc::QError(
          estimates[i], static_cast<double>(queries[i]->cardinality)));
    }
    return errors;
  };
  return {qerrors(state.synthetic), qerrors(state.job_light)};
}

QErrors Summarize(const EvalErrors& errors) {
  QErrors result;
  result.p50 = lc::Quantile(errors.synthetic, 0.5);
  result.p95 = lc::Quantile(errors.synthetic, 0.95);
  result.joblight_p50 = lc::Quantile(errors.job_light, 0.5);
  return result;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  const std::string knob = FirstProgramKnob();
  if (!knob.empty()) {
    std::cerr << "refusing to run: " << knob
              << " is set; the benchmark measures the program at its "
                 "defaults, so unset every LC_* variable\n";
    return 2;
  }
  ::mkdir(".bench_out", 0755);
  std::cout << "MACHINE " << MachineBlock() << "\n";
  if (!IsOptimizedBuild(LCBENCH_BUILD_TYPE)) {
    std::cout << "WARNING: build type '" << LCBENCH_BUILD_TYPE
              << "' is not optimized; results are not comparable\n";
  }

  // Set-up, repeated: setup_s is the median. Each set-up starts from
  // nothing (database, samples, labelled corpus, trained model, server).
  std::vector<double> setup_s, label_s, train_s;
  std::unique_ptr<ServingState> state;
  QErrors serve_qerrors;
  Verdict verdict;
  for (int rep = 0; rep < options.sizes.setup_reps; ++rep) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = SetUp(options, rep);
    setup_s.push_back(SecondsSince(start));
    label_s.push_back(state->label_s);
    train_s.push_back(state->train_s);
    state->qerrors = ScoreModel(*state, state->model.get());
    if (rep > 0 && !(state->qerrors == serve_qerrors)) {
      verdict.Problem("serving-model q-errors differ between set-ups; "
                      "labelling or training is not deterministic");
    }
    serve_qerrors = state->qerrors;
  }
  // The resident footprint once the estimator is up, before the load
  // generator allocates its own records.
  const double setup_rss_mb = PeakRssMb();

  Metrics metrics;
  Tracer tracer(options.trace);
  if (options.workload == "miss_open") {
    RunMissOpen(options, *state, &metrics, &verdict, &tracer);
  } else if (options.workload == "miss_closed") {
    RunMissClosed(options, *state, &metrics, &verdict, &tracer);
  } else if (options.workload == "hit_zipf") {
    RunHitZipf(options, *state, &metrics, &verdict, &tracer);
  } else {
    RunTrain(options, *state, &metrics, &verdict, &tracer);
  }

  if (options.trace) {
    if (options.workload != "train") {
      // The serving model's own labelling and training, replayed.
      TraceLabelAndTrain(options, *state, state->corpus,
                         options.sizes.serve_epochs, &metrics, &tracer);
    }
    // Spans stay in memory until here. Columns: id, name, request,
    // parent, start_us, end_us.
    std::string spans;
    tracer.Dump(&spans);
    const std::string path = lc::Format(".bench_out/trace-%s-%llu.tsv",
                                        options.workload.c_str(),
                                        static_cast<unsigned long long>(
                                            options.seed));
    if (FILE* file = std::fopen(path.c_str(), "w")) {
      std::fwrite(spans.data(), 1, spans.size(), file);
      std::fclose(file);
      metrics.Note("spans written to " + path);
    }
  } else {
    metrics.Set("setup_s", Median(setup_s), "s");
    // `train` runs no load generator, so its whole run counts.
    metrics.Set("peak_rss_mb",
                options.workload == "train" ? PeakRssMb() : setup_rss_mb,
                "MB");
    metrics.Note(lc::Format("peak RSS: %.1f MB after set-up, %.1f MB at exit",
                            setup_rss_mb, PeakRssMb()));
    if (options.workload != "train") {
      label_s.insert(label_s.end(), state->relabel_s.begin(),
                     state->relabel_s.end());
      train_s.insert(train_s.end(), state->retrain_s.begin(),
                     state->retrain_s.end());
      metrics.Set("label_s", BestTime(label_s), "s");
      metrics.Set("train_s", BestTime(train_s), "s");
      metrics.Set("qerr_p50", serve_qerrors.p50, "ratio");
      metrics.Set("qerr_p95", serve_qerrors.p95, "ratio");
      metrics.Set("qerr_joblight_p50", serve_qerrors.joblight_p50, "ratio");
    }
    metrics.Note(lc::Format("setup: %zu set-ups, median %.3f s",
                            setup_s.size(), Median(setup_s)));
  }
  state.reset();

  for (const std::string& note : metrics.notes()) {
    std::cout << "  " << note << "\n";
  }
  std::string json;
  for (const auto& [name, value] : metrics.values()) {
    std::cout << lc::Format("%-24s %16.6f %s\n", name.c_str(), value.first,
                            value.second.c_str());
    if (!std::isfinite(value.first)) {
      verdict.Problem("metric " + name + " is not finite");
      continue;
    }
    json += lc::Format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       json.empty() ? "" : ", ", name.c_str(),
                       JsonNumber(value.first).c_str(),
                       value.second.c_str());
  }
  for (const std::string& problem : verdict.problems) {
    std::cout << "FAIL: " << problem << "\n";
  }
  if (verdict.mismatches > 0) {
    std::cout << "FAIL: " << verdict.mismatches
              << " answers differ from the reference path\n";
  }
  std::cout << lc::Format(
                   "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                   "\"metrics\": {%s}}",
                   verdict.correct() ? "true" : "false",
                   static_cast<unsigned long long>(
                       std::max<uint64_t>(1, verdict.attempted)),
                   static_cast<unsigned long long>(verdict.failed),
                   json.c_str())
            << std::endl;
  return verdict.correct() ? 0 : 1;
}

}  // namespace lcbench

int main(int argc, char** argv) { return lcbench::Main(argc, argv); }
