// Open-loop end-to-end benchmark of the Querc serving path (paper §2,
// Figure 1: QWorkers beside the database's query path).
//
// One process, one workload per run. Setup generates a seeded Snowflake
// history and serving stream, trains the two embedders (LSTM autoencoder
// and Doc2Vec PV-DBOW), trains and deploys two classifier tasks through
// TrainingModule::TrainAndDeploy (`account` on the LSTM, `user` on
// Doc2Vec), builds a 2-shard QWorkerPool on the training module's 2-worker
// ThreadPool with tenant admission, lint, the embedding cache and no-op
// sinks on, and warms it. Setup runs several times; its median is setup_s.
//
// The serving run sends Poisson arrivals at the workload's fixed rate from
// one generator thread; each is one interactive-lane task calling
// QWorkerPool::Process. Latency runs from the arrival's due time; its
// tail is p99_ms. A closed-loop phase then keeps one query per worker
// outstanding: its throughput is peak_qps and its median latency p50_ms.
// Every served query is checked against a serial reference
// (Classifier::Predict per task, lint diagnostic count).
//
// With --trace 1 a second open-loop phase replaces each Process call by
// the same stages as separate timed public calls and prints the per-stage
// table; spans of the first queries go to a Chrome-trace JSON file.
//
// The last stdout line is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   perfbench_e2e --workload serve_warm --seed 1 --seconds 10 --trace 0

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "embed/doc2vec.h"
#include "embed/embed_cache.h"
#include "embed/embedder.h"
#include "embed/lstm_autoencoder.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "querc/qworker_pool.h"
#include "querc/training_module.h"
#include "sql/lint/engine.h"
#include "util/lane.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/topology.h"
#include "workload/snowflake_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace core = querc::core;
namespace embed = querc::embed;
namespace obs = querc::obs;
namespace util = querc::util;
namespace wl = querc::workload;

// Load shape: one generator thread (main), a 2-worker pool shared by the
// two shards and by training, and on the retrain workloads one retrain
// thread.
constexpr size_t kWorkers = 2;
constexpr size_t kShards = 2;
constexpr int kSetupReps = 3;
/// One query per worker outstanding: each worker serves back to back, so
/// its vCPU never idles and no query waits for a halted vCPU to be woken,
/// which on a busy host costs milliseconds.
constexpr size_t kClosedLoopDepth = kWorkers;
/// Bounds the closed loop's per-query record (16 bytes a query).
constexpr double kMaxClosedLoopQps = 250'000.0;
constexpr size_t kSpanQueries = 2000;
constexpr size_t kHistoryQueries = 1200;
constexpr size_t kReferenceThreads = 3;
constexpr int kMaxCalmWaitS = 10;
constexpr char kApp[] = "bench";

struct WorkloadSpec {
  const char* name;
  double rate_qps;
  bool cold;     // high-cardinality ad-hoc stream instead of templates
  bool retrain;  // one TrainAndDeploy cycle per window beside serving
  size_t warmup_queries;
  /// The open loop is measured in windows of window_s; metrics pool the
  /// calmer half of them by host steal, so a window is only the unit of
  /// that choice. On the retrain workloads every window holds one retrain
  /// cycle, a quarter of the way in, so every window sees the same mix.
  double window_s;
};

// BENCHMARK.json lists the two retrain workloads. Without a retrain cycle
// the tail of a sub-ms query is set by how long the host deschedules the
// VM's vCPUs, not by the program; a blocking cycle sets a tail of hundreds
// of ms that the host moves far less. serve_warm and serve_cold run by
// hand.
constexpr WorkloadSpec kWorkloads[] = {
    {"serve_warm", 10000.0, false, false, 2000, 0.5},
    {"serve_cold", 1500.0, true, false, 4000, 0.5},
    {"serve_retrain", 10000.0, false, true, 2000, 2.0},
    {"serve_cold_retrain", 1500.0, true, true, 4000, 2.0},
};

/// Closed-loop windows. The closed loop runs no retrain cycles: peak_qps
/// and p50_ms are those of the serving path alone on every workload (on a
/// retrain workload, of its stream).
constexpr double kClosedWindowS = 0.5;

/// Shares of --seconds for the open loop and the closed loop of an
/// untraced run.
constexpr double kOpenShare = 0.8;
constexpr double kClosedShare = 0.2;

/// A run whose calmer half of latency windows still lost more than this
/// much cpu to the host (ms per second, summed over the vCPUs) is
/// flagged.
constexpr double kNoisyStealMsPerS = 40.0;

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->workload != nullptr && args->seconds > 0.0 && argc % 2 == 1;
}

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

// ---------------------------------------------------------- host steal
//
// On a shared host, interference comes as bursts of vCPU stalls, and the
// kernel counts the cpu time the host takes as steal. A time measured
// many times in a run (latency windows, throughput windows, retrain
// cycles) is therefore summarized over its calmer half by steal
// (CalmerHalf): the selection looks only at the host's record, never at
// the program's own figures, so a slowdown the program causes stays in.

/// CPU time the host took from this VM, summed over its vCPUs: the steal
/// column of /proc/stat (10-ms ticks), in ms. 0 where it is not reported.
double StealMs() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return 0.0;
  return static_cast<double>(v[7]) * 1e3 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

using StealSamples = std::vector<std::pair<int64_t, double>>;  // (ns, ms)

/// Samples StealMs every 10 ms on a sleeping thread until stopped.
class StealSampler {
 public:
  StealSampler()
      : thread_(util::SpawnThread("perfbench-steal", [this] { Loop(); })) {}
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stops sampling; returns the samples in time order.
  StealSamples Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      samples_.emplace_back(NowNs(), StealMs());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    samples_.emplace_back(NowNs(), StealMs());
  }

  std::atomic<bool> stop_{false};
  StealSamples samples_;  // written by thread_ until joined
  std::thread thread_;
};

/// Steal in [begin_ns, end_ns), from the last samples at or before each.
double StealBetween(const StealSamples& samples, int64_t begin_ns,
                    int64_t end_ns) {
  auto at = [&](int64_t t) {
    double out = samples.empty() ? 0.0 : samples.front().second;
    for (const auto& [ns, ms] : samples) {
      if (ns > t) break;
      out = ms;
    }
    return out;
  };
  return at(end_ns) - at(begin_ns);
}

/// Median of the calmer half of `values` by their steal.
double CalmerHalfMedian(const std::vector<double>& values,
                        const std::vector<double>& steal_ms) {
  std::vector<double> calm;
  for (size_t i : CalmerHalf(steal_ms)) calm.push_back(values[i]);
  return Median(std::move(calm));
}

/// Runs fn(i) for i in [0, n) on `threads` plain threads (not the pool
/// under test).
void ParallelChunks(size_t n, size_t threads,
                    const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.push_back(util::SpawnThread("perfbench-ref", [&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    }));
  }
  for (std::thread& w : workers) w.join();
}

// ---------------------------------------------------------------- setup

/// The Snowflake tenants of the templated stream: 8 accounts, 4 users
/// each, repeated templates.
std::vector<wl::SnowflakeGenerator::AccountSpec> TemplatedAccounts(
    int queries_per_account) {
  return wl::SnowflakeGenerator::UniformAccounts(8, queries_per_account, 4);
}

/// Thousands of small accounts, each with a private schema and a dozen
/// queries: almost every query is a template the service has not seen.
std::vector<wl::SnowflakeGenerator::AccountSpec> AdHocAccounts() {
  std::vector<wl::SnowflakeGenerator::AccountSpec> specs;
  for (int i = 0; i < 3000; ++i) {
    wl::SnowflakeGenerator::AccountSpec spec;
    spec.name = util::StrFormat("adhoc%04d", i);
    spec.num_users = 3;
    spec.num_queries = 12;
    spec.shared_query_rate = 0.0;
    spec.shared_pool_size = 0;
    spec.shared_table_fraction = 0.0;
    spec.templates_per_account = 8;
    spec.templates_per_user = 3;
    specs.push_back(std::move(spec));
  }
  return specs;
}

wl::Workload Generate(std::vector<wl::SnowflakeGenerator::AccountSpec> specs,
                      uint64_t seed) {
  wl::SnowflakeGenerator::Options options;
  options.seed = seed;
  options.accounts = std::move(specs);
  return wl::SnowflakeGenerator(options).Generate();
}

embed::Doc2VecEmbedder::Options Doc2VecOptions() {
  embed::Doc2VecEmbedder::Options options;
  options.dim = 16;
  options.mode = embed::Doc2VecEmbedder::Mode::kDbow;
  options.epochs = 6;
  options.infer_epochs = 12;
  options.min_count = 2;
  options.seed = 9;
  return options;
}

embed::LstmAutoencoderEmbedder::Options LstmOptions() {
  embed::LstmAutoencoderEmbedder::Options options;
  options.hidden_dim = 32;
  options.token_dim = 16;
  options.epochs = 1;
  options.min_count = 2;
  options.seed = 13;
  return options;
}

core::QWorkerPool::Options PoolOptions() {
  core::QWorkerPool::Options options;
  options.application = kApp;
  options.num_shards = kShards;
  options.partition = core::QWorkerPool::Partition::kByAccount;
  options.max_in_flight = 1 << 20;
  options.enable_tenant_admission = true;
  // Quotas far above the offered load: admission runs its token buckets
  // on every query but never sheds.
  options.admission.default_quota.burst = 1e9;
  options.admission.default_quota.rate_per_sec = 1e9;
  return options;
}

struct SetupTimes {
  double generate_s = 0.0;
  double train_embedders_s = 0.0;
  double train_classifiers_s = 0.0;
  double total_s = 0.0;
  int64_t classifiers_begin_ns = 0;
  int64_t classifiers_end_ns = 0;
};

/// The system under test. Members are destroyed bottom-up, so the pool
/// goes before the training module whose ThreadPool it runs on.
struct Service {
  wl::Workload history;
  std::vector<wl::LabeledQuery> stream;
  std::shared_ptr<embed::Doc2VecEmbedder> doc2vec;
  std::shared_ptr<embed::LstmAutoencoderEmbedder> lstm;
  std::unique_ptr<core::TrainingModule> training;
  std::unique_ptr<core::QWorkerPool> pool;
  std::vector<core::TrainingModule::TrainJob> jobs;
  SetupTimes times;
};

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

std::unique_ptr<Service> SetUp(const WorkloadSpec& spec, uint64_t seed) {
  auto s = std::make_unique<Service>();
  const int64_t t0 = NowNs();
  if (spec.cold) {
    wl::Workload history =
        Generate(TemplatedAccounts(kHistoryQueries / 8), seed);
    s->history = std::move(history);
    s->stream = Generate(AdHocAccounts(), seed ^ 0xc01dc01dULL).queries();
  } else {
    // One generation, split: the history and the stream are disjoint
    // queries of the same tenants.
    std::vector<wl::LabeledQuery> all =
        Generate(TemplatedAccounts(2150), seed).queries();
    s->history = wl::Workload(std::vector<wl::LabeledQuery>(
        all.begin(), all.begin() + kHistoryQueries));
    s->stream.assign(all.begin() + kHistoryQueries, all.end());
  }
  const int64_t t1 = NowNs();

  s->doc2vec = std::make_shared<embed::Doc2VecEmbedder>(Doc2VecOptions());
  s->lstm = std::make_shared<embed::LstmAutoencoderEmbedder>(LstmOptions());
  for (embed::Embedder* e :
       {static_cast<embed::Embedder*>(s->doc2vec.get()),
        static_cast<embed::Embedder*>(s->lstm.get())}) {
    util::Status status = embed::TrainOnWorkload(*e, s->history);
    if (!status.ok()) Fail("training " + e->name() + ": " + status.ToString());
  }
  const int64_t t2 = NowNs();

  core::TrainingModule::Options training;
  training.training_threads = kWorkers;
  s->training = std::make_unique<core::TrainingModule>(training);
  s->training->ImportLogs(kApp, s->history);
  s->training->RegisterEmbedder("lstm", s->lstm);
  s->training->RegisterEmbedder("doc2vec", s->doc2vec);
  s->pool = std::make_unique<core::QWorkerPool>(
      PoolOptions(), &s->training->thread_pool());
  s->pool->set_database_sink([](const wl::LabeledQuery&) {});
  s->pool->set_training_sink([](const core::ProcessedQuery&) {});
  s->jobs = {
      {"account", kApp, "lstm",
       [](const wl::LabeledQuery& q) { return q.account; }, nullptr},
      {"user", kApp, "doc2vec",
       [](const wl::LabeledQuery& q) { return q.user; }, nullptr},
  };
  util::Status status = s->training->TrainAndDeploy(s->jobs, *s->pool);
  if (!status.ok()) Fail("TrainAndDeploy: " + status.ToString());
  const int64_t t3 = NowNs();

  wl::Workload warm(std::vector<wl::LabeledQuery>(
      s->stream.begin(),
      s->stream.begin() +
          static_cast<long>(std::min(spec.warmup_queries, s->stream.size()))));
  for (const core::ProcessedQuery& out : s->pool->ProcessBatch(warm)) {
    if (!out.clean()) Fail("warm-up query failed: " + out.status.ToString());
  }
  const int64_t t4 = NowNs();

  s->times.generate_s = Seconds(t0, t1);
  s->times.train_embedders_s = Seconds(t1, t2);
  s->times.train_classifiers_s = Seconds(t2, t3);
  s->times.total_s = Seconds(t0, t4);
  s->times.classifiers_begin_ns = t2;
  s->times.classifiers_end_ns = t3;
  return s;
}

// ------------------------------------------------------ output checking

/// Serial reference outputs for every stream query: the deployed models'
/// Classifier::Predict (uncached, so it also cross-checks the cache) and
/// a fresh LintEngine's diagnostic count. Predictions depend only on the
/// embedders' input, so they are computed once per distinct token list.
struct Reference {
  std::vector<uint32_t> input_of;  // stream index -> distinct input id
  std::vector<std::string> account;
  std::vector<std::string> user;
  std::vector<uint32_t> lint;  // per stream index
};

Reference BuildReference(const Service& s) {
  const size_t n = s.stream.size();
  std::vector<std::string> keys(n);
  Reference ref;
  ref.lint.resize(n);
  const querc::sql::lint::LintEngine lint;
  ParallelChunks(n, kReferenceThreads, [&](size_t i) {
    const wl::LabeledQuery& q = s.stream[i];
    for (const std::string& w : embed::TokenizeForEmbedding(q.text, q.dialect)) {
      keys[i] += w;
      keys[i] += '\x1f';
    }
    ref.lint[i] = static_cast<uint32_t>(
        lint.LintQuery(q.text, 0, q.dialect).diagnostics.size());
  });
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<size_t> representative;
  ref.input_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        ids.emplace(keys[i], static_cast<uint32_t>(representative.size()));
    if (inserted) representative.push_back(i);
    ref.input_of[i] = it->second;
  }
  std::shared_ptr<core::Classifier> account = s.training->Model("account");
  std::shared_ptr<core::Classifier> user = s.training->Model("user");
  ref.account.resize(representative.size());
  ref.user.resize(representative.size());
  ParallelChunks(representative.size(), kReferenceThreads, [&](size_t d) {
    const wl::LabeledQuery& q = s.stream[representative[d]];
    ref.account[d] = account->Predict(q);
    ref.user[d] = user->Predict(q);
  });
  return ref;
}

/// Failure tallies across every served query. A query fails when it is
/// shed, has a non-OK status, exceeds its deadline, has a degraded or
/// skipped task, or its predictions or lint count differ from the
/// reference.
struct Faults {
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> bad_status{0};
  std::atomic<uint64_t> deadline{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> prediction_mismatch{0};
  std::atomic<uint64_t> lint_mismatch{0};
  std::atomic<uint64_t> failed{0};
};

bool PredictionsMatch(const std::map<std::string, std::string>& predictions,
                      const Reference& ref, uint32_t input) {
  auto account = predictions.find("account");
  auto user = predictions.find("user");
  return predictions.size() == 2 && account != predictions.end() &&
         user != predictions.end() && account->second == ref.account[input] &&
         user->second == ref.user[input];
}

void Check(const core::ProcessedQuery& out, size_t idx, const Reference& ref,
           Faults& faults) {
  faults.served.fetch_add(1, std::memory_order_relaxed);
  bool failed = false;
  auto bump = [&failed](std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    failed = true;
  };
  if (out.shed) bump(faults.shed);
  if (!out.status.ok() || !out.database_status.ok() ||
      !out.training_status.ok()) {
    bump(faults.bad_status);
  }
  if (out.deadline_exceeded) bump(faults.deadline);
  if (!out.degraded_tasks.empty() || !out.skipped_tasks.empty()) {
    bump(faults.degraded);
  }
  if (!out.shed && !PredictionsMatch(out.predictions, ref, ref.input_of[idx])) {
    bump(faults.prediction_mismatch);
  }
  if (!out.shed && out.diagnostics.size() != ref.lint[idx]) {
    bump(faults.lint_mismatch);
  }
  if (failed) faults.failed.fetch_add(1, std::memory_order_relaxed);
}

// ------------------------------------------------------------- tracing

enum Stage : size_t {
  kAdmit,
  kShardOf,
  kTokenize,
  kCacheLookup,  // GetOrCompute self time (inference excluded)
  kEmbedDoc2vec,
  kEmbedLstm,
  kClassify,
  kLint,
  kRelease,
  kNumStages
};

constexpr const char* kStageNames[kNumStages] = {
    "admission.admit",    "qworker_pool.shard_of", "sql.tokenize",
    "embed_cache.lookup", "embed.doc2vec",         "embed.lstm",
    "classifier.predict", "lint.lint",             "admission.release"};

/// Per-query stage timings of the traced run: up to two calls per stage
/// (one per task or embedder), -1 = no call.
struct StageRecord {
  std::array<std::array<int64_t, 2>, kNumStages> call_ns;
  StageRecord() {
    for (auto& calls : call_ns) calls = {-1, -1};
  }
  void Add(Stage stage, int64_t ns) {
    auto& calls = call_ns[stage];
    calls[calls[0] < 0 ? 0 : 1] = ns;
  }
};

/// One Chrome-trace span; spans of a query share its arrival index.
struct SpanEvent {
  const char* name = nullptr;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};
constexpr size_t kMaxSpansPerQuery = 16;
using QuerySpans = std::vector<SpanEvent>;

/// Small dense id per serving thread, for the trace's tid field.
int ThreadTag() {
  static std::atomic<int> next{1};
  thread_local int tag = next.fetch_add(1);
  return tag;
}

/// The traced replacement for QWorkerPool::Process: the same stages as
/// separate public calls, each timed into `record` (and `spans`, when
/// given). Returns the same outputs Process would.
core::ProcessedQuery ServeTraced(Service& s, const wl::LabeledQuery& q,
                                 StageRecord& record, QuerySpans* spans) {
  auto timed = [&](Stage stage, int64_t begin, int64_t end) {
    record.Add(stage, end - begin);
    if (spans != nullptr) spans->push_back({kStageNames[stage], begin, end});
  };
  core::ProcessedQuery out;
  core::TenantAdmissionController* admission = s.pool->admission();
  int64_t b = NowNs();
  const core::AdmitDecision decision = admission->AdmitOne(q);
  int64_t e = NowNs();
  timed(kAdmit, b, e);
  if (!decision.admitted) {
    out.shed = true;
    out.status = util::Status::ResourceExhausted("tenant admission: shed");
    return out;
  }
  b = e;
  core::QWorker& worker = s.pool->shard(s.pool->ShardOf(q));
  e = NowNs();
  timed(kShardOf, b, e);
  b = e;
  const std::vector<std::string> words =
      embed::TokenizeForEmbedding(q.text, q.dialect);
  e = NowNs();
  timed(kTokenize, b, e);

  // Hold the snapshot: a concurrent deploy swaps in a new map and frees
  // the old one once nothing references it.
  const auto classifiers = worker.classifiers();
  std::map<uint64_t, std::shared_ptr<const querc::nn::Vec>> vectors;
  for (const auto& [task, classifier] : *classifiers) {
    const embed::Embedder& embedder = classifier->embedder();
    auto it = vectors.find(embedder.instance_id());
    if (it == vectors.end()) {
      const Stage inference = embedder.instance_id() == s.doc2vec->instance_id()
                                  ? kEmbedDoc2vec
                                  : kEmbedLstm;
      int64_t inference_ns = 0;
      b = NowNs();
      std::shared_ptr<const querc::nn::Vec> vec =
          worker.embed_cache()->GetOrCompute(
              embed::EmbeddingCache::KeyFor(embedder, words), [&] {
                const int64_t eb = NowNs();
                querc::nn::Vec v = embedder.Embed(words);
                const int64_t ee = NowNs();
                inference_ns = ee - eb;
                timed(inference, eb, ee);
                return v;
              });
      e = NowNs();
      // The lookup's self time: the inference inside it is its own stage.
      record.Add(kCacheLookup, e - b - inference_ns);
      if (spans != nullptr) {
        spans->push_back({kStageNames[kCacheLookup], b, e});
      }
      it = vectors.emplace(embedder.instance_id(), std::move(vec)).first;
    }
    b = NowNs();
    out.predictions[task] = classifier->PredictFromEmbedding(*it->second);
    e = NowNs();
    timed(kClassify, b, e);
  }
  b = NowNs();
  out.diagnostics =
      worker.lint_engine().LintQuery(q.text, 0, q.dialect).diagnostics;
  e = NowNs();
  timed(kLint, b, e);
  b = e;
  admission->Release(q.account);
  timed(kRelease, b, NowNs());
  return out;
}

// ------------------------------------------------------------ the load

/// TrainAndDeploy cycles on the serving pool's batch lane, cycle k due at
/// first_ns + k * period_ns (back to back when period_ns is 0).
class RetrainLoop {
 public:
  RetrainLoop(Service& s, int64_t first_ns, int64_t period_ns)
      : s_(s),
        first_ns_(first_ns),
        period_ns_(period_ns),
        thread_(util::SpawnThread("perfbench-retrain", [this] { Loop(); })) {}
  ~RetrainLoop() { Stop(); }
  RetrainLoop(const RetrainLoop&) = delete;
  RetrainLoop& operator=(const RetrainLoop&) = delete;

  /// Finishes the cycle in progress and returns every cycle's (begin ns,
  /// end ns).
  std::vector<std::pair<int64_t, int64_t>> Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return cycles_;
  }

 private:
  void Loop() {
    for (int64_t k = 0; !stop_.load(); ++k) {
      const int64_t due = first_ns_ + k * period_ns_;
      while (!stop_.load() && NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stop_.load()) break;
      const int64_t begin = NowNs();
      util::Status status = s_.training->TrainAndDeploy(s_.jobs, *s_.pool);
      if (!status.ok()) Fail("retrain: " + status.ToString());
      cycles_.emplace_back(begin, NowNs());
    }
  }

  Service& s_;
  const int64_t first_ns_;
  const int64_t period_ns_;
  std::atomic<bool> stop_{false};
  std::vector<std::pair<int64_t, int64_t>> cycles_;  // thread_ until joined
  std::thread thread_;
};

/// Blocks until `done` reaches `n`; a hung service ends the process
/// without a result rather than hanging the benchmark.
void AwaitCompletions(const std::atomic<size_t>& done, size_t n) {
  const int64_t give_up = NowNs() + 60'000'000'000LL;
  while (done.load(std::memory_order_acquire) < n) {
    if (NowNs() > give_up) Fail("queries did not complete within 60 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Stream position of arrival i of a phase starting at `base`.
size_t StreamIndex(const Service& s, size_t base, size_t i) {
  return (base + i) % s.stream.size();
}

struct OpenLoopRun {
  std::vector<Arrival> arrivals;
  OpenLoopStats stats;
  std::vector<StageRecord> stages;  // traced runs only
  std::vector<QuerySpans> spans;    // traced runs, first kSpanQueries
  std::vector<int> tids;
};

OpenLoopRun RunOpenLoopPhase(Service& s, const Reference& ref, Faults& faults,
                             int64_t start_ns, double rate_qps, double seconds,
                             size_t base, uint64_t seed, bool traced) {
  const size_t n = static_cast<size_t>(rate_qps * seconds);
  std::vector<int64_t> offsets = PoissonSchedule(rate_qps, n, seed);
  OpenLoopRun run;
  if (traced) {
    run.stages.resize(n);
    run.spans.resize(std::min(n, kSpanQueries));
    for (QuerySpans& spans : run.spans) spans.reserve(kMaxSpansPerQuery);
    run.tids.resize(n);
  }
  std::atomic<size_t> done{0};
  util::ThreadPool& pool = s.training->thread_pool();
  auto submit = [&](size_t i) {
    pool.Submit(util::Lane::kInteractive, [&, i] {
      const size_t idx = StreamIndex(s, base, i);
      Arrival& arrival = run.arrivals[i];
      arrival.start_ns = NowNs();
      core::ProcessedQuery out =
          traced ? ServeTraced(s, s.stream[idx], run.stages[i],
                               i < run.spans.size() ? &run.spans[i] : nullptr)
                 : s.pool->Process(s.stream[idx]);
      arrival.end_ns = NowNs();
      if (traced) run.tids[i] = ThreadTag();
      Check(out, idx, ref, faults);
      done.fetch_add(1, std::memory_order_acq_rel);
    });
  };
  RunOpenLoop(start_ns, offsets, run.arrivals, submit);
  AwaitCompletions(done, n);
  run.stats = AnalyzeOpenLoop(run.arrivals);
  return run;
}

struct ClosedLoopResult {
  double qps = 0.0;    // mean completions per second of the windows used
  Summary latency_us;  // submit -> end of their queries, pooled
};

/// Closed loop: kClosedLoopDepth queries outstanding, each completion
/// issuing the next, for `windows` windows of `window_ns` from
/// `window_begin` (after a ramp from now). Reports the calmer half of the
/// windows by steal.
ClosedLoopResult RunClosedLoop(Service& s, const Reference& ref,
                               Faults& faults, int64_t window_begin,
                               int64_t window_ns, size_t windows,
                               size_t base) {
  StealSampler steal;
  util::ThreadPool& pool = s.training->thread_pool();
  const int64_t stop = window_begin + static_cast<int64_t>(windows) * window_ns;
  // Per issued query: submit and end ns. Left uninitialized, so only the
  // pages the run uses count towards rss_mb.
  struct Slot {
    int64_t submit_ns;
    int64_t end_ns;
  };
  const size_t capacity = static_cast<size_t>(
      kMaxClosedLoopQps * Seconds(NowNs(), stop)) + kClosedLoopDepth;
  const std::unique_ptr<Slot[]> slots =
      std::make_unique_for_overwrite<Slot[]>(capacity);
  std::atomic<size_t> next{0};
  std::atomic<size_t> outstanding{0};
  std::function<void()> issue = [&] {
    const size_t i = next.fetch_add(1);
    if (i >= capacity) Fail("closed loop ran past its query slots");
    const size_t idx = StreamIndex(s, base, i);
    outstanding.fetch_add(1);
    slots[i].submit_ns = NowNs();
    pool.Submit(util::Lane::kInteractive, [&, i, idx] {
      core::ProcessedQuery out = s.pool->Process(s.stream[idx]);
      const int64_t end = NowNs();
      slots[i].end_ns = end;
      Check(out, idx, ref, faults);
      if (end < stop) issue();
      outstanding.fetch_sub(1, std::memory_order_acq_rel);
    });
  };
  for (size_t k = 0; k < kClosedLoopDepth; ++k) issue();
  WaitUntilNs(stop);
  const int64_t give_up = NowNs() + 60'000'000'000LL;
  while (outstanding.load(std::memory_order_acquire) > 0) {
    if (NowNs() > give_up) Fail("closed loop did not drain within 60 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const StealSamples samples = steal.Stop();
  std::vector<LatencyWindow> by_window(windows);
  for (size_t i = 0; i < std::min(next.load(), capacity); ++i) {
    const auto [submit, end] = slots[i];
    if (end < window_begin || end >= stop) continue;
    by_window[static_cast<size_t>((end - window_begin) / window_ns)]
        .latency_us.push_back(static_cast<double>(end - submit) / 1e3);
  }
  std::vector<double> rates, steal_ms;
  std::printf("closed loop per %.1f-s window (host steal ms / qps):",
              static_cast<double>(window_ns) / 1e9);
  for (size_t w = 0; w < windows; ++w) {
    const int64_t begin = window_begin + static_cast<int64_t>(w) * window_ns;
    steal_ms.push_back(StealBetween(samples, begin, begin + window_ns));
    rates.push_back(static_cast<double>(by_window[w].latency_us.size()) *
                    1e9 / static_cast<double>(window_ns));
    std::printf(" %.0f/%.0f", steal_ms.back(), rates.back());
  }
  std::printf("; %zu queries from stream position %zu\n", next.load(), base);
  ClosedLoopResult result;
  const std::vector<size_t> calm = CalmerHalf(steal_ms);
  for (size_t w : calm) result.qps += rates[w];
  result.qps /= static_cast<double>(calm.size());
  result.latency_us = PooledLatency(by_window, calm);
  return result;
}

// ------------------------------------------------------------ reporting

/// Peak resident set size of this process (Linux reports kB).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// querc_stage_ms sample counts by stage label, from the program's own
/// registry.
std::map<std::string, uint64_t> StageCounts() {
  std::map<std::string, uint64_t> counts;
  for (const auto& h :
       obs::MetricsRegistry::Global().Collect("querc_stage_ms").histograms) {
    for (const auto& [key, value] : h.labels) {
      if (key == "stage") counts[value] = h.snapshot.count;
    }
  }
  return counts;
}

obs::HistogramSnapshot RegistryHistogram(const std::string& name) {
  for (const auto& h : obs::MetricsRegistry::Global().Collect(name).histograms) {
    if (h.name == name) return h.snapshot;
  }
  return {};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) { return util::StrFormat("%.12g", v); }

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = util::StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  return json + "}}";
}

void WriteChromeTrace(const std::string& path, const OpenLoopRun& run) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("could not write trace %s\n", path.c_str());
    return;
  }
  const int64_t origin = run.arrivals.empty() ? 0 : run.arrivals[0].due_ns;
  auto us = [origin](int64_t ns) {
    return static_cast<double>(ns - origin) / 1e3;
  };
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  auto event = [&](const char* name, int tid, int64_t b, int64_t e, size_t q) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"query\": %zu}}",
                 first ? "" : ",\n", name, tid, us(b), us(e) - us(b), q);
    first = false;
  };
  for (size_t i = 0; i < run.spans.size(); ++i) {
    const Arrival& a = run.arrivals[i];
    const int tid = run.tids[i];
    // Tid 0 carries the generator-side view of each query.
    event("loadgen.lateness", 0, a.due_ns, a.sent_ns, i);
    event("thread_pool.queue_wait", tid, a.sent_ns, a.start_ns, i);
    event("query", tid, a.start_ns, a.end_ns, i);
    for (const SpanEvent& span : run.spans[i]) {
      event(span.name, tid, span.begin_ns, span.end_ns, i);
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
  std::printf("chrome trace: %s (%zu queries)\n", path.c_str(),
              run.spans.size());
}

struct StageSummary {
  double calls_per_query = 0.0;
  double mean_us_per_query = 0.0;
  double p50_us_per_call = 0.0;
};

std::array<StageSummary, kNumStages> SummarizeStages(
    const std::vector<StageRecord>& records) {
  std::array<StageSummary, kNumStages> out;
  const double n = static_cast<double>(std::max<size_t>(records.size(), 1));
  for (size_t st = 0; st < kNumStages; ++st) {
    std::vector<double> calls;
    double total_us = 0.0;
    for (const StageRecord& r : records) {
      for (int64_t ns : r.call_ns[st]) {
        if (ns < 0) continue;
        calls.push_back(static_cast<double>(ns) / 1e3);
        total_us += calls.back();
      }
    }
    out[st].calls_per_query = static_cast<double>(calls.size()) / n;
    out[st].mean_us_per_query = total_us / n;
    out[st].p50_us_per_call = Summarize(std::move(calls)).p50;
  }
  return out;
}

/// p50 of direct, single-threaded Embedder::Embed calls over the first
/// stream queries: the kernel's cost, whatever the cache hit ratio.
double DirectEmbedP50Us(const Service& s, const embed::Embedder& embedder) {
  std::vector<double> samples;
  for (size_t i = 0; i < s.stream.size() && samples.size() < 256; ++i) {
    std::vector<std::string> words =
        embed::TokenizeForEmbedding(s.stream[i].text, s.stream[i].dialect);
    const int64_t b = NowNs();
    querc::nn::Vec v = embedder.Embed(words);
    samples.push_back(static_cast<double>(NowNs() - b) / 1e3);
    if (v.size() != embedder.dim()) Fail("embedding has the wrong size");
  }
  return Summarize(std::move(samples)).p50;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload serve_warm|serve_cold|"
                 "serve_retrain|serve_cold_retrain --seed N --seconds S "
                 "--trace 0|1 "
                 "[--git-sha SHA] [--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec& spec = *args.workload;

  // Host noise first. Interference on a shared host comes in bursts, so
  // wait a little for a calm probe rather than start inside one; a run
  // that still starts on a stalled host is flagged.
  auto stalled = [](const HostNoise& n) {
    return n.stall_frac > 0.02 || n.stall_max_ms > 10;
  };
  HostNoise noise = ProbeHost(0.25);
  int waited_s = 0;
  for (; stalled(noise) && waited_s < kMaxCalmWaitS; waited_s += 2) {
    std::this_thread::sleep_for(std::chrono::seconds(2));
    noise = ProbeHost(0.25);
  }
  const bool host_stalled = stalled(noise);
  const util::Topology& topo = util::Topology::System();
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"build_type\": \"%s\", "
      "\"git_sha\": \"%s\", \"topology\": \"cpus=%zu cores=%zu nodes=%zu "
      "smt=%s\", \"host_stall_frac\": %s, \"host_stall_max_ms\": %s, "
      "\"host_stalled\": %s, \"calm_wait_s\": %d}}\n",
      spec.name, args.seed, JsonNumber(args.seconds).c_str(),
      args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, args.git_sha.c_str(),
      topo.num_cpus(), topo.num_cores(), topo.num_nodes(),
      topo.smt() ? "yes" : "no", JsonNumber(noise.stall_frac).c_str(),
      JsonNumber(noise.stall_max_ms).c_str(), host_stalled ? "true" : "false",
      waited_s);
  if (host_stalled) {
    std::printf("WARNING: host stalled during the noise probe (%.2f%% of "
                "time, worst %.2f ms); do not compare this run\n",
                100.0 * noise.stall_frac, noise.stall_max_ms);
  }

  // Setup, several times; the last service is the one measured.
  std::vector<double> setup_s, generate_s, embedders_s, classifiers_s;
  std::vector<std::pair<int64_t, int64_t>> classifier_spans;
  std::unique_ptr<Service> s;
  StealSampler setup_steal;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    s = SetUp(spec, args.seed);
    setup_s.push_back(s->times.total_s);
    generate_s.push_back(s->times.generate_s);
    embedders_s.push_back(s->times.train_embedders_s);
    classifiers_s.push_back(s->times.train_classifiers_s);
    classifier_spans.emplace_back(s->times.classifiers_begin_ns,
                                  s->times.classifiers_end_ns);
    std::printf("  setup rep %d: %.3f s (generate %.3f, embedders %.3f, "
                "classifiers %.3f)\n",
                rep, s->times.total_s, s->times.generate_s,
                s->times.train_embedders_s, s->times.train_classifiers_s);
  }
  const StealSamples setup_samples = setup_steal.Stop();
  const obs::HistogramSnapshot train_setup =
      RegistryHistogram("querc_training_train_ms");
  const obs::HistogramSnapshot deploy_setup =
      RegistryHistogram("querc_training_deploy_ms");
  std::printf("%s: setup median %.3f s (generate %.3f, embedders %.3f, "
              "classifiers %.3f); stream %zu queries, history %zu\n",
              spec.name, Median(setup_s), Median(generate_s),
              Median(embedders_s), Median(classifiers_s), s->stream.size(),
              s->history.size());
  const Reference ref = BuildReference(*s);
  std::printf("reference: %zu distinct embedder inputs in %zu queries\n",
              ref.account.size(), s->stream.size());

  Faults faults;
  const int64_t window_ns = static_cast<int64_t>(spec.window_s * 1e9);
  std::unique_ptr<RetrainLoop> retrain;
  // Returns when an open-loop phase's first window begins, after starting
  // the retrain cycles for it.
  auto start_phase = [&] {
    const int64_t start = NowNs() + 10'000'000;
    if (spec.retrain) {
      retrain =
          std::make_unique<RetrainLoop>(*s, start + window_ns / 4, window_ns);
    }
    return start;
  };

  // Untraced open loop: the end-to-end tail latency, in windows with the
  // host's steal in each.
  const double open_seconds =
      args.trace ? args.seconds / 2 : kOpenShare * args.seconds;
  const std::map<std::string, uint64_t> stages_before = StageCounts();
  const embed::EmbedCacheStats cache_before = s->pool->MergedEmbedCacheStats();
  const size_t lint_before = s->pool->lint_diagnostic_count();
  size_t base = spec.warmup_queries;
  StealSampler open_steal;
  OpenLoopRun untraced =
      RunOpenLoopPhase(*s, ref, faults, start_phase(),
                       spec.rate_qps, open_seconds, base, args.seed, false);
  const StealSamples open_samples = open_steal.Stop();
  std::vector<std::pair<int64_t, int64_t>> retrain_cycles;
  if (retrain) retrain_cycles = retrain->Stop();
  base += untraced.arrivals.size();
  const embed::EmbedCacheStats cache_after = s->pool->MergedEmbedCacheStats();
  const std::map<std::string, uint64_t> stages_after = StageCounts();
  const size_t lint_diagnostics =
      s->pool->lint_diagnostic_count() - lint_before;
  const OpenLoopStats& u = untraced.stats;
  const size_t sent = untraced.arrivals.size();

  // p99_ms is the mean of the calmer half of the windows' own p99s: on a
  // retrain workload each window's tail is its retrain cycle, and a
  // pooled p99 would follow the few windows with the longest cycles. A
  // 2-s window holds 3,000-20,000 queries, so 30-200 lie beyond its p99.
  const std::vector<LatencyWindow> windows =
      SplitWindows(untraced.arrivals, window_ns);
  std::vector<double> window_steal_ms, window_p99_ms;
  for (const LatencyWindow& w : windows) {
    window_steal_ms.push_back(
        StealBetween(open_samples, w.begin_ns, w.begin_ns + window_ns));
    window_p99_ms.push_back(Summarize(w.latency_us).p99 / 1e3);
  }
  const std::vector<size_t> calm = CalmerHalf(window_steal_ms);
  const Summary pooled = PooledLatency(windows, calm);
  const double open_p50_ms = pooled.p50 / 1e3;
  double p99_ms = 0.0;
  for (size_t w : calm) p99_ms += window_p99_ms[w];
  p99_ms /= static_cast<double>(calm.size());
  double stolen_ms = 0.0, calm_stolen_ms = 0.0;
  std::printf("open loop: %zu sent at %.0f qps; whole run p50 %.4f ms, p99 "
              "%.4f ms, max %.3f ms; p99 of lateness %.1f us, queue wait "
              "%.1f us, Process %.1f us; Process p50 %.1f us\n",
              sent, spec.rate_qps, u.latency_us.p50 / 1e3,
              u.latency_us.p99 / 1e3, u.latency_us.max / 1e3,
              u.lateness_us.p99, u.queue_wait_us.p99, u.service_us.p99,
              u.service_us.p50);
  std::printf("  %.1f-s windows (host steal ms / p99 ms):", spec.window_s);
  for (size_t w = 0; w < windows.size(); ++w) {
    stolen_ms += window_steal_ms[w];
    std::printf(" %.0f/%.3f", window_steal_ms[w], window_p99_ms[w]);
  }
  for (size_t w : calm) calm_stolen_ms += window_steal_ms[w];
  const double calm_steal_per_s =
      calm_stolen_ms / (spec.window_s * static_cast<double>(calm.size()));
  std::printf("\n  calmer %zu of %zu windows (%.1f ms steal/s), %zu "
              "queries: pooled p50 %.4f ms, pooled p99 %.4f ms, mean "
              "window p99 %.4f ms\n",
              calm.size(), windows.size(), calm_steal_per_s, pooled.count,
              open_p50_ms, pooled.p99 / 1e3, p99_ms);
  if (calm_steal_per_s > kNoisyStealMsPerS) {
    std::printf("WARNING: the host stole %.1f ms of cpu a second even in "
                "the calmer windows; do not compare this run\n",
                calm_steal_per_s);
  }

  const uint64_t lookups = cache_after.lookups() - cache_before.lookups();
  const uint64_t misses = cache_after.misses - cache_before.misses;
  const double hit_ratio =
      lookups == 0 ? 0.0
                   : static_cast<double>(lookups - misses) /
                         static_cast<double>(lookups);
  std::printf("embed cache: hit ratio %.4f, %.3f inferences/query, %" PRIu64
              " evictions\n",
              hit_ratio, static_cast<double>(misses) / static_cast<double>(sent),
              cache_after.evictions - cache_before.evictions);
  // Cross-check with the program's own stage metrics (not gated): counts
  // per served query include the serving and any training that ran.
  std::printf("querc_stage_ms counts per served query:");
  for (const auto& [stage, count] : stages_after) {
    auto it = stages_before.find(stage);
    const uint64_t before = it == stages_before.end() ? 0 : it->second;
    std::printf(" %s=%.2f", stage.c_str(),
                static_cast<double>(count - before) / static_cast<double>(sent));
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    const size_t closed_windows = std::max<size_t>(
        2, static_cast<size_t>(kClosedShare * args.seconds / kClosedWindowS));
    const ClosedLoopResult closed =
        RunClosedLoop(*s, ref, faults, NowNs() + 200'000'000,
                      static_cast<int64_t>(kClosedWindowS * 1e9),
                      closed_windows, base);
    // One TrainAndDeploy: the cycles beside serving on a retrain workload,
    // else setup's unloaded ones; each the median of the calmer half.
    std::vector<double> cycle_s, cycle_steal_ms;
    const StealSamples& cycle_samples =
        spec.retrain ? open_samples : setup_samples;
    for (const auto& [begin, end] :
         spec.retrain ? retrain_cycles : classifier_spans) {
      cycle_s.push_back(Seconds(begin, end));
      cycle_steal_ms.push_back(StealBetween(cycle_samples, begin, end));
    }
    const double retrain_s = CalmerHalfMedian(cycle_s, cycle_steal_ms);
    std::printf("closed loop: %.1f qps, p50 %.4f ms, p99 %.4f ms, %zu "
                "queries, %zu outstanding\n",
                closed.qps, closed.latency_us.p50 / 1e3,
                closed.latency_us.p99 / 1e3, closed.latency_us.count,
                kClosedLoopDepth);
    std::printf("retrain: %zu %s cycles, calmer-half median %.4f s\n",
                cycle_s.size(), spec.retrain ? "serving" : "setup", retrain_s);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", closed.latency_us.p50 / 1e3, "ms"},
        {"p99_ms", p99_ms, "ms"},
        {"peak_qps", closed.qps, "1/s"},
        {"retrain_s", retrain_s, "s"},
        {"rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    const obs::HistogramSnapshot train_before =
        RegistryHistogram("querc_training_train_ms");
    const obs::HistogramSnapshot deploy_before =
        RegistryHistogram("querc_training_deploy_ms");
    OpenLoopRun traced =
        RunOpenLoopPhase(*s, ref, faults, start_phase(),
                         spec.rate_qps, open_seconds, base, args.seed + 1,
                         true);
    if (retrain) retrain->Stop();
    const double traced_p50_ms = traced.stats.latency_us.p50 / 1e3;
    const double untraced_p50_ms = u.latency_us.p50 / 1e3;

    // Per-stage table: traced stage means per query against the untraced
    // mean Process time; the remainder is what the stages do not cover.
    const std::array<StageSummary, kNumStages> st =
        SummarizeStages(traced.stages);
    const double process_mean = u.service_us.mean;
    double staged = 0.0;
    std::printf("\nstage table (%zu traced queries; shares of untraced "
                "Process mean %.2f us)\n",
                traced.stages.size(), process_mean);
    std::printf("  %-24s %8s %12s %12s %8s\n", "stage", "calls/q", "mean us/q",
                "p50 us/call", "share");
    for (size_t i = 0; i < kNumStages; ++i) {
      staged += st[i].mean_us_per_query;
      std::printf("  %-24s %8.3f %12.3f %12.3f %7.1f%%\n", kStageNames[i],
                  st[i].calls_per_query, st[i].mean_us_per_query,
                  st[i].p50_us_per_call,
                  100.0 * st[i].mean_us_per_query / process_mean);
    }
    const double unattributed = process_mean - staged;
    std::printf("  %-24s %8s %12.3f %12s %7.1f%%\n", "qworker.unattributed", "",
                unattributed, "", 100.0 * unattributed / process_mean);
    std::printf("tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms "
                "= %.4f ms\n",
                traced_p50_ms, untraced_p50_ms, traced_p50_ms - untraced_p50_ms);
    if (!args.trace_out.empty()) WriteChromeTrace(args.trace_out, traced);

    // Training metrics from the jobs that ran beside serving, else from
    // setup's.
    obs::HistogramSnapshot train = RegistryHistogram("querc_training_train_ms");
    obs::HistogramSnapshot deploy =
        RegistryHistogram("querc_training_deploy_ms");
    double train_mean_ms = train_setup.mean();
    double deploy_mean_ms = deploy_setup.mean();
    if (train.count > train_before.count) {
      train_mean_ms = (train.sum - train_before.sum) /
                      static_cast<double>(train.count - train_before.count);
      deploy_mean_ms = (deploy.sum - deploy_before.sum) /
                       static_cast<double>(deploy.count - deploy_before.count);
    }
    const uint64_t shed = s->pool->shed_count() +
                          s->pool->admission()->shed_total();
    metrics = {
        {"sql.tokenize_p50_us", st[kTokenize].p50_us_per_call, "us"},
        {"lint.lint_p50_us", st[kLint].p50_us_per_call, "us"},
        {"lint.diagnostics", static_cast<double>(lint_diagnostics), "count"},
        {"embed.doc2vec_p50_us", DirectEmbedP50Us(*s, *s->doc2vec), "us"},
        {"embed.lstm_p50_us", DirectEmbedP50Us(*s, *s->lstm), "us"},
        {"embed_cache.hit_ratio", hit_ratio, "ratio"},
        {"embed_cache.inferences_per_query",
         static_cast<double>(misses) / static_cast<double>(sent), "count"},
        {"embed_cache.evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions),
         "count"},
        {"embed_cache.lookup_p50_us", st[kCacheLookup].p50_us_per_call, "us"},
        {"classifier.predict_p50_us", st[kClassify].p50_us_per_call, "us"},
        {"admission.admit_p50_us", st[kAdmit].p50_us_per_call, "us"},
        {"admission.shed", static_cast<double>(shed), "count"},
        {"thread_pool.queue_wait_p50_us", u.queue_wait_us.p50, "us"},
        {"thread_pool.queue_wait_p99_us", u.queue_wait_us.p99, "us"},
        {"thread_pool.busy_frac",
         u.busy_us / (static_cast<double>(kWorkers) * u.span_us), "ratio"},
        {"qworker_pool.process_p50_us", u.service_us.p50, "us"},
        {"qworker_pool.process_p99_us", u.service_us.p99, "us"},
        {"qworker.unattributed_us", unattributed, "us"},
        {"training.train_s", train_mean_ms / 1e3, "s"},
        {"qworker_pool.deploy_ms", deploy_mean_ms, "ms"},
        {"setup.generate_s", Median(generate_s), "s"},
        {"setup.train_embedders_s", Median(embedders_s), "s"},
        {"setup.train_classifiers_s", Median(classifiers_s), "s"},
        {"loadgen.lateness_p99_us", u.lateness_us.p99, "us"},
        {"loadgen.sent", static_cast<double>(sent), "count"},
        {"loadgen.completed", static_cast<double>(u.latency_us.count),
         "count"},
        {"loadgen.error_frac",
         static_cast<double>(faults.failed.load()) /
             static_cast<double>(faults.served.load()),
         "ratio"},
        {"trace.overhead_ms", traced_p50_ms - untraced_p50_ms, "ms"},
        {"host.stall_frac", noise.stall_frac, "ratio"},
        {"host.stall_max_ms", noise.stall_max_ms, "ms"},
        {"host.steal_frac",
         stolen_ms / (1e3 * spec.window_s *
                      static_cast<double>(windows.size() * topo.num_cpus())),
         "ratio"},
    };
  }

  const uint64_t attempted = faults.served.load();
  const uint64_t failed = faults.failed.load();
  std::printf("checks: %" PRIu64 " served, %" PRIu64 " failed (shed %" PRIu64
              ", status %" PRIu64 ", deadline %" PRIu64 ", degraded %" PRIu64
              ", prediction mismatches %" PRIu64 ", lint mismatches %" PRIu64
              "); error_frac %.6f\n",
              faults.served.load(), failed, faults.shed.load(),
              faults.bad_status.load(), faults.deadline.load(),
              faults.degraded.load(), faults.prediction_mismatch.load(),
              faults.lint_mismatch.load(),
              static_cast<double>(failed) / static_cast<double>(attempted));
  const bool correct = failed == 0 && u.latency_us.count == sent;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
