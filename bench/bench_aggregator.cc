// Measures util::ConcurrentAggregator — the lock-free sharded hash
// aggregator behind the lint offender maps, template histograms, and
// pooled stats — against the mutexed-map baseline it replaced: insert
// throughput vs thread count and two-phase central-merge latency, at up
// to 1M+ distinct templates.
//
// Every bench_-prefixed metric is exported to BENCH_aggregator.json (see
// --out). With --smoke the sizes are truncated for a CI sanity run and
// the process fails unless (a) the aggregator's correctness contract
// holds — counts conserved across eviction churn, exact group-by within
// capacity, late hot keys surfacing past a full table — and (b) the
// aggregator beats the mutexed baseline at the highest thread count.
// --no-perf-gate keeps (a) but waives (b): sanitizer builds distort
// relative timings, so tools/verify_matrix.sh passes it for asan/tsan
// (contract-only under sanitizers).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/concurrent_aggregator.h"

namespace querc::bench {
namespace {

/// The pre-aggregator shape of every merge path: one mutex around a map.
/// (unordered_map, to be generous — the replaced QWorker code used an
/// ordered std::map.)
class MutexedMap {
 public:
  void Record(const std::string& key, uint64_t count_delta,
              uint64_t weight_delta) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& entry = map_[key];
    entry.first += count_delta;
    entry.second += weight_delta;
  }

  /// The old central merge: copy under the lock, fold into `central`.
  void MergeInto(
      std::unordered_map<std::string, std::pair<uint64_t, uint64_t>>&
          central) const {
    std::unordered_map<std::string, std::pair<uint64_t, uint64_t>> copy;
    {
      std::lock_guard<std::mutex> lock(mu_);
      copy = map_;
    }
    for (const auto& [key, value] : copy) {
      auto& entry = central[key];
      entry.first += value.first;
      entry.second += value.second;
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::pair<uint64_t, uint64_t>> map_;
};

std::vector<std::string> MakeKeys(size_t distinct) {
  std::vector<std::string> keys;
  keys.reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    keys.push_back("tmpl_" + std::to_string(i));  // short: stays in SSO
  }
  return keys;
}

/// Key index for operation `op`: a multiplicative scramble so threads
/// touch the key space in a shuffled order (no accidental per-thread
/// partitioning — concurrent inserts of the same key do collide).
size_t KeyIndex(size_t op, size_t distinct) {
  return static_cast<size_t>(op * 2654435761u) % distinct;
}

template <typename RecordFn>
double TimedRun(size_t threads, size_t total_ops,
                const RecordFn& record_one) {
  util::Stopwatch watch;
  if (threads <= 1) {
    for (size_t op = 0; op < total_ops; ++op) record_one(op);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    const size_t per_thread = (total_ops + threads - 1) / threads;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const size_t begin = t * per_thread;
        const size_t end = std::min(begin + per_thread, total_ops);
        for (size_t op = begin; op < end; ++op) record_one(op);
      });
    }
    for (auto& w : workers) w.join();
  }
  double seconds = watch.ElapsedSeconds();
  return static_cast<double>(total_ops) / std::max(seconds, 1e-9);
}

struct ThroughputResult {
  double aggregator_qps = 0.0;
  double baseline_qps = 0.0;
};

/// One throughput cell: `threads` writers over `total_ops` records drawn
/// from `keys`, fresh containers per run, best of `reps`.
ThroughputResult MeasureThroughput(const std::vector<std::string>& keys,
                                   size_t threads, size_t total_ops,
                                   int reps) {
  ThroughputResult result;
  for (int rep = 0; rep < reps; ++rep) {
    // 2x headroom so hash skew across shards can't trigger eviction: this
    // cell measures pure insert/update throughput (the capped/evicting
    // regime is exercised separately by the contract checks).
    util::ConcurrentAggregator::Options options;
    options.capacity = keys.size() * 2;
    options.shards = 16;
    util::ConcurrentAggregator aggregator(options);
    result.aggregator_qps = std::max(
        result.aggregator_qps,
        TimedRun(threads, total_ops, [&](size_t op) {
          aggregator.Record(keys[KeyIndex(op, keys.size())], 1, op & 3);
        }));

    MutexedMap baseline;
    result.baseline_qps = std::max(
        result.baseline_qps,
        TimedRun(threads, total_ops, [&](size_t op) {
          baseline.Record(keys[KeyIndex(op, keys.size())], 1, op & 3);
        }));
  }
  return result;
}

struct MergeResult {
  double aggregator_ms = 0.0;
  double baseline_ms = 0.0;
  bool ok = true;
};

/// Two-phase central merge latency with every key resident.
MergeResult MeasureMerge(const std::vector<std::string>& keys, int reps) {
  // 2x headroom: hash skew across shards must not evict anything, or the
  // merged map would come up short and the run would be meaningless.
  util::ConcurrentAggregator::Options options;
  options.capacity = keys.size() * 2;
  options.shards = 16;
  util::ConcurrentAggregator aggregator(options);
  MutexedMap baseline;
  for (const std::string& key : keys) {
    aggregator.Record(key, 1, 2);
    baseline.Record(key, 1, 2);
  }
  MergeResult result;
  result.aggregator_ms = 1e300;
  result.baseline_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    {
      std::unordered_map<std::string, util::AggregateEntry> central;
      util::Stopwatch watch;
      aggregator.MergeInto(central);
      result.aggregator_ms =
          std::min(result.aggregator_ms, watch.ElapsedMillis());
      if (central.size() != keys.size()) {
        std::fprintf(stderr,
                     "FAIL: merge saw %zu of %zu keys (unexpected "
                     "eviction)\n",
                     central.size(), keys.size());
        result.ok = false;
        return result;
      }
    }
    {
      std::unordered_map<std::string, std::pair<uint64_t, uint64_t>> central;
      util::Stopwatch watch;
      baseline.MergeInto(central);
      result.baseline_ms = std::min(result.baseline_ms, watch.ElapsedMillis());
    }
  }
  return result;
}

/// The aggregator's correctness contract, checked in every mode and every
/// sanitizer config:
///  1. concurrent totals conserved across eviction churn (no lost
///     updates: resident + dropped == recorded);
///  2. exact group-by within capacity (matches a reference map);
///  3. evict-least: a late hot key surfaces after the table fills.
bool CheckContract(size_t threads) {
  bool ok = true;

  // 1. Conservation under concurrent churn: tiny capacity, hot+cold mix.
  {
    util::ConcurrentAggregator::Options options;
    options.capacity = 64;
    options.shards = 4;
    util::ConcurrentAggregator aggregator(options);
    const size_t kOps = 40000;
    std::vector<std::thread> workers;
    const size_t per_thread = kOps / std::max<size_t>(threads, 1);
    for (size_t t = 0; t < std::max<size_t>(threads, 1); ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = 0; i < per_thread; ++i) {
          std::string key = (i % 2 == 0)
                                ? "hot_" + std::to_string(i % 8)
                                : "cold_" + std::to_string(t * per_thread + i);
          aggregator.Record(key, 1, 3);
        }
      });
    }
    for (auto& w : workers) w.join();
    uint64_t recorded = per_thread * std::max<size_t>(threads, 1);
    uint64_t resident_count = 0;
    uint64_t resident_weight = 0;
    for (const auto& e : aggregator.Snapshot()) {
      resident_count += e.count;
      resident_weight += e.weight;
    }
    if (resident_count + aggregator.dropped_count() != recorded ||
        resident_weight + aggregator.dropped_weight() != 3 * recorded) {
      std::fprintf(stderr,
                   "FAIL: contract(1) lost updates under churn: "
                   "%llu+%llu counts vs %llu recorded\n",
                   static_cast<unsigned long long>(resident_count),
                   static_cast<unsigned long long>(aggregator.dropped_count()),
                   static_cast<unsigned long long>(recorded));
      ok = false;
    }
  }

  // 2. Exactness within capacity.
  {
    util::ConcurrentAggregator::Options options;
    options.capacity = 4096;
    options.shards = 8;
    util::ConcurrentAggregator aggregator(options);
    std::map<std::string, std::pair<uint64_t, uint64_t>> reference;
    for (size_t i = 0; i < 20000; ++i) {
      // Appended, not "k" + std::to_string: GCC 12 reports a false
      // -Wrestrict on the latter in Release.
      std::string key = "k";
      key += std::to_string(i % 1500);
      aggregator.Record(key, 1, i % 5);
      auto& entry = reference[key];
      entry.first += 1;
      entry.second += i % 5;
    }
    auto snapshot = aggregator.Snapshot();
    bool exact = snapshot.size() == reference.size() &&
                 aggregator.dropped_keys() == 0;
    for (const auto& e : snapshot) {
      auto it = reference.find(e.key);
      if (it == reference.end() || it->second.first != e.count ||
          it->second.second != e.weight) {
        exact = false;
        break;
      }
    }
    if (!exact) {
      std::fprintf(stderr,
                   "FAIL: contract(2) in-capacity group-by is not exact\n");
      ok = false;
    }
  }

  // 3. Evict-least: late hot key must surface past a full table.
  {
    util::ConcurrentAggregator::Options options;
    options.capacity = 8;
    options.shards = 1;
    util::ConcurrentAggregator aggregator(options);
    for (size_t i = 0; i < 8; ++i) {
      aggregator.Record("early_" + std::to_string(i), 1, 1);
    }
    for (int i = 0; i < 100; ++i) aggregator.Record("late_hot", 1, 1);
    auto top = aggregator.Top(1);
    if (top.empty() || top[0].key != "late_hot" ||
        aggregator.dropped_keys() == 0) {
      std::fprintf(stderr,
                   "FAIL: contract(3) late hot key did not surface "
                   "(evict-least broken)\n");
      ok = false;
    }
  }
  return ok;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool perf_gate = true;
  const char* out_path = "BENCH_aggregator.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-perf-gate") == 0) {
      perf_gate = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_aggregator [--smoke] [--no-perf-gate] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  const size_t distinct = smoke ? (1u << 14) : (1u << 20);  // 16k / 1M+
  const size_t total_ops = smoke ? (1u << 17) : (1u << 22);  // 128k / 4M
  const int reps = 2;
  const std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 2, 4, 8};

  std::printf("=== ConcurrentAggregator vs mutexed map: %zu distinct "
              "templates, %zu records ===\n",
              distinct, total_ops);
  std::vector<std::string> keys = MakeKeys(distinct);

  auto& registry = obs::MetricsRegistry::Global();
  registry
      .GetGauge("bench_agg_distinct_templates", {},
                "Distinct template keys in the aggregation benchmark")
      .Set(static_cast<double>(distinct));
  registry
      .GetGauge("bench_agg_total_records", {},
                "Records per throughput run")
      .Set(static_cast<double>(total_ops));

  double agg_at_max = 0.0;
  double base_at_max = 0.0;
  for (size_t threads : thread_counts) {
    ThroughputResult r = MeasureThroughput(keys, threads, total_ops, reps);
    obs::Labels agg_labels = {{"impl", "aggregator"},
                              {"threads", std::to_string(threads)}};
    obs::Labels base_labels = {{"impl", "mutex_map"},
                               {"threads", std::to_string(threads)}};
    registry
        .GetGauge("bench_agg_insert_qps", agg_labels,
                  "Aggregation record throughput, records/second")
        .Set(r.aggregator_qps);
    registry.GetGauge("bench_agg_insert_qps", base_labels, "")
        .Set(r.baseline_qps);
    std::printf("  threads %zu  aggregator %12.0f rec/s  mutexed map "
                "%12.0f rec/s  (%.2fx)\n",
                threads, r.aggregator_qps, r.baseline_qps,
                r.aggregator_qps / std::max(r.baseline_qps, 1e-9));
    if (threads == thread_counts.back()) {
      agg_at_max = r.aggregator_qps;
      base_at_max = r.baseline_qps;
    }
  }
  registry
      .GetGauge("bench_agg_speedup_at_max_threads", {},
                "aggregator_qps / mutex_map_qps at the highest measured "
                "thread count")
      .Set(agg_at_max / std::max(base_at_max, 1e-9));

  MergeResult merge = MeasureMerge(keys, reps);
  registry
      .GetGauge("bench_agg_merge_ms", {{"impl", "aggregator"}},
                "Two-phase Snapshot+MergeInto central-merge latency, ms")
      .Set(merge.aggregator_ms);
  registry.GetGauge("bench_agg_merge_ms", {{"impl", "mutex_map"}}, "")
      .Set(merge.baseline_ms);
  std::printf("  central merge of %zu keys: aggregator %.2f ms  mutexed "
              "map %.2f ms\n",
              distinct, merge.aggregator_ms, merge.baseline_ms);

  bool contract_ok = merge.ok && CheckContract(thread_counts.back());
  registry
      .GetGauge("bench_agg_contract_ok", {},
                "1 when conservation/exactness/evict-least checks passed")
      .Set(contract_ok ? 1.0 : 0.0);

  std::string json = obs::ExportJson(registry, "bench_");
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  if (!contract_ok) return 1;
  if (smoke && perf_gate) {
    if (agg_at_max < base_at_max) {
      std::fprintf(stderr,
                   "FAIL: aggregator %.0f rec/s < mutexed baseline %.0f "
                   "rec/s at %zu threads\n",
                   agg_at_max, base_at_max, thread_counts.back());
      return 1;
    }
  }
  if (smoke) std::printf("smoke OK\n");
  return 0;
}

}  // namespace
}  // namespace querc::bench

int main(int argc, char** argv) { return querc::bench::Main(argc, argv); }
