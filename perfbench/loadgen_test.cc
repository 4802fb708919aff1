// Checks the benchmark's own open-loop accounting (loadgen.h), on
// hand-built timelines and on a stub service with a fixed service time
// run on the same laned ThreadPool the benchmark drives:
//   - latency measured from the intended send time includes an injected
//     generator pause, for every query the pause delayed, where latency
//     from the actual send would hide it;
//   - the pause shows up as generator lateness;
//   - the percentile math matches a sorted-sample reference.
// Exits 0 when every check holds, 1 otherwise.
//
//   loadgen_test

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "loadgen.h"
#include "util/lane.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

/// Reference percentile: the smallest sample x with
/// count(samples <= x) >= q * n, found by counting, not by index math.
double ReferencePercentile(const std::vector<double>& samples, double q) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double x : sorted) {
    size_t at_or_below = static_cast<size_t>(
        std::count_if(sorted.begin(), sorted.end(),
                      [x](double v) { return v <= x; }));
    if (static_cast<double>(at_or_below) >=
        q * static_cast<double>(sorted.size())) {
      return x;
    }
  }
  return sorted.back();
}

void TestPercentiles() {
  std::vector<double> one_to_hundred;
  for (int i = 1; i <= 100; ++i) one_to_hundred.push_back(i);
  Summary s = Summarize(one_to_hundred);
  Expect(s.p50 == 50.0, "p50 of 1..100 is 50");
  Expect(s.p99 == 99.0, "p99 of 1..100 is 99");
  Expect(s.max == 100.0 && s.mean == 50.5, "max and mean of 1..100");
  Expect(Summarize({7.0}).p99 == 7.0, "a single sample is every percentile");

  querc::util::Rng rng(42);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4321u}) {
    std::vector<double> samples(n);
    for (double& v : samples) v = rng.UniformDouble(0.0, 1e4);
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      Expect(PercentileSorted(sorted, q) == ReferencePercentile(samples, q),
             "percentile matches the counting reference");
    }
  }
}

void TestPoissonSchedule() {
  const double rate = 5000.0;
  std::vector<int64_t> a = PoissonSchedule(rate, 20000, 7);
  std::vector<int64_t> b = PoissonSchedule(rate, 20000, 7);
  Expect(a == b, "same seed gives the same schedule");
  Expect(std::is_sorted(a.begin(), a.end()), "due times never go back");
  const double achieved = 20000.0 / (static_cast<double>(a.back()) / 1e9);
  Expect(achieved > 0.95 * rate && achieved < 1.05 * rate,
         "schedule runs at the requested rate");
}

/// Hand-built timelines: arrivals every 100us, each served in exactly
/// 50us on send, and a generator stalled for 10ms before arrival 600 so
/// arrivals 500..599 go out late, all at once.
void TestAccountingOfAStall() {
  constexpr int64_t kGapNs = 100'000;
  constexpr int64_t kServiceNs = 50'000;
  std::vector<Arrival> arrivals(1000);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    a.due_ns = static_cast<int64_t>(i) * kGapNs;
    a.sent_ns = (i >= 500 && i < 600) ? 600 * kGapNs : a.due_ns;
    a.start_ns = a.sent_ns;
    a.end_ns = a.start_ns + kServiceNs;
  }
  OpenLoopStats stats = AnalyzeOpenLoop(arrivals);
  Expect(stats.latency_us.count == 1000, "every arrival counted");
  Expect(stats.latency_us.max == 10'050.0,
         "the first stalled arrival waits out the whole stall");
  // Nearest-rank p99 of 1000 is the 990th smallest, the 11th largest:
  // arrival 510's (600 - 510) * 100us + 50us.
  Expect(stats.latency_us.p99 == 9'050.0, "p99 counts the stalled arrivals");
  Expect(stats.latency_us.p50 == 50.0, "the median is the service time");
  Expect(stats.lateness_us.max == 10'000.0, "the stall is reported as lateness");
  Expect(stats.service_us.max == 50.0 && stats.queue_wait_us.max == 0.0,
         "service and queue wait exclude the stall");
  // Measured from the actual send instead, the stall would vanish
  // (coordinated omission).
  int64_t worst_from_send = 0;
  for (const Arrival& a : arrivals) {
    worst_from_send = std::max(worst_from_send, a.end_ns - a.sent_ns);
  }
  Expect(worst_from_send == kServiceNs,
         "send-based latency would hide the stall");
  // Ten 10ms windows: only window 5 holds the stall. If the host stole
  // the most cpu in it, the calmer half leaves it out and its pooled tail
  // is the service time; pooled over all ten it is the whole run's.
  std::vector<LatencyWindow> windows = SplitWindows(arrivals, 10'000'000);
  Expect(windows.size() == 10, "ten full windows");
  std::vector<size_t> all;
  for (size_t w = 0; w < windows.size(); ++w) {
    Expect(windows[w].begin_ns == static_cast<int64_t>(w) * 10'000'000 &&
               windows[w].latency_us.size() == 100,
           "each window holds the arrivals due in it");
    all.push_back(w);
  }
  const std::vector<double> steal_ms = {0, 10, 0, 20, 10, 90, 0, 30, 10, 0};
  const std::vector<size_t> calm = CalmerHalf(steal_ms);
  Expect(calm == std::vector<size_t>({0, 2, 6, 9, 1, 4, 8}),
         "the calmer half: up to the median steal, least stolen first");
  Expect(CalmerHalf(std::vector<double>(4, 0.0)).size() == 4,
         "without steal every measurement counts");
  Expect(PooledLatency(windows, calm).p99 == 50.0,
         "the stall lands in its own window");
  Expect(PooledLatency(windows, all).p99 == stats.latency_us.p99,
         "pooling every window gives the whole-run percentile");
}

/// Live run on the laned ThreadPool the benchmark drives: each stub task
/// spins for a fixed service time on a 2-worker pool at 20% load, and the
/// generator is paused once for 30ms. Only lower bounds are checked, so a
/// noisy host cannot fail it.
void TestPauseIsCharged() {
  constexpr int64_t kServiceNs = 100'000;
  constexpr int64_t kPauseNs = 30'000'000;
  constexpr size_t kArrivals = 600;
  constexpr size_t kPauseAt = 300;
  querc::util::ThreadPool::Options options;
  options.num_threads = 2;
  querc::util::ThreadPool pool(options);
  std::vector<int64_t> offsets = PoissonSchedule(4000.0, kArrivals, 3);
  std::vector<Arrival> arrivals;
  std::atomic<size_t> done{0};
  const int64_t start = NowNs() + 1'000'000;
  RunOpenLoop(
      start, offsets, arrivals,
      [&](size_t i) {
        pool.Submit(querc::util::Lane::kInteractive, [&, i] {
          arrivals[i].start_ns = NowNs();
          const int64_t until = arrivals[i].start_ns + kServiceNs;
          while (NowNs() < until) {
          }
          arrivals[i].end_ns = NowNs();
          done.fetch_add(1, std::memory_order_acq_rel);
        });
      },
      GeneratorPause{kPauseAt, kPauseNs});
  while (done.load(std::memory_order_acquire) < kArrivals) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  bool on_schedule = true;
  for (size_t i = 0; i < kArrivals; ++i) {
    if (arrivals[i].due_ns != start + offsets[i] ||
        arrivals[i].sent_ns < arrivals[i].due_ns) {
      on_schedule = false;
    }
  }
  Expect(on_schedule, "due times are the schedule's, never after the send");
  // Every query due before the generator resumed is charged the wait
  // until it was actually sent, plus the fixed service time.
  const int64_t pause_begin = arrivals[kPauseAt - 1].sent_ns;
  const int64_t resumed = arrivals[kPauseAt].sent_ns;
  Expect(resumed - pause_begin >= kPauseNs, "the generator did pause");
  size_t delayed = 0;
  bool all_charged = true;
  for (size_t i = kPauseAt; i < kArrivals; ++i) {
    const Arrival& a = arrivals[i];
    if (a.due_ns >= resumed) break;
    ++delayed;
    if (a.end_ns - a.due_ns < (resumed - a.due_ns) + kServiceNs) {
      all_charged = false;
    }
  }
  Expect(delayed > 50, "many arrivals fell due during the pause");
  Expect(all_charged, "latency from due time includes the pause");

  OpenLoopStats stats = AnalyzeOpenLoop(arrivals);
  Expect(stats.latency_us.count == kArrivals, "every arrival completed");
  Expect(stats.lateness_us.max * 1e3 >= 0.9 * kPauseNs,
         "the pause is reported as lateness");
  Expect(stats.service_us.p50 * 1e3 >= kServiceNs,
         "service time covers the stub's fixed work");
  // The top 1% are among the first arrivals due in the pause, each
  // waiting out at least half of it.
  Expect(stats.latency_us.p99 * 1e3 >= 0.5 * kPauseNs,
         "p99 reflects the delayed queries");
  std::printf("pause %.1f ms: %zu arrivals delayed, latency p50 %.1f us "
              "p99 %.1f us max %.1f us, lateness max %.1f us\n",
              static_cast<double>(kPauseNs) / 1e6, delayed,
              stats.latency_us.p50, stats.latency_us.p99,
              stats.latency_us.max, stats.lateness_us.max);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestPoissonSchedule();
  perfbench::TestAccountingOfAStall();
  perfbench::TestPauseIsCharged();
  if (perfbench::failures > 0) {
    std::printf("loadgen_test: %d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("loadgen_test: all checks passed\n");
  return 0;
}
