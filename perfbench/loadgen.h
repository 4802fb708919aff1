#ifndef QUERC_PERFBENCH_LOADGEN_H_
#define QUERC_PERFBENCH_LOADGEN_H_

// Open-loop load generation and its accounting, kept apart from the Querc
// benchmark program so loadgen_test.cc can check it against a stub service.
//
// Every arrival has an intended send time (its *due* time) drawn from a
// Poisson process. Latency runs from the due time to completion, so when
// the generator or the host stalls, every query the stall delays is
// charged for it (no coordinated omission); how late the generator
// actually sent each query is reported separately as lateness.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "util/rng.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Asks the kernel to wake this thread's sleeps on time: the default
/// 50us timer slack is half a gap between arrivals at 10k qps.
inline void UseFineTimerSlack() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Sleeps until shortly before `deadline_ns`, then spins out the rest, so
/// the generator is on time without keeping a cpu busy between arrivals.
inline void WaitUntilNs(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 40'000;
  for (;;) {
    int64_t left = deadline_ns - NowNs();
    if (left <= 0) return;
    if (left > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    } else {
      CpuRelax();
    }
  }
}

/// Due-time offsets (ns from the start of the run) of `n` Poisson
/// arrivals at `rate_qps`. The same seed gives the same schedule.
inline std::vector<int64_t> PoissonSchedule(double rate_qps, size_t n,
                                            uint64_t seed) {
  querc::util::Rng rng(seed);
  std::vector<int64_t> offsets(n);
  double t_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // Inverse-CDF exponential gap; 1 - U keeps log() away from 0.
    t_s += -std::log(1.0 - rng.UniformDouble(0.0, 1.0)) / rate_qps;
    offsets[i] = static_cast<int64_t>(t_s * 1e9);
  }
  return offsets;
}

/// Nearest-rank percentile (q in [0, 1]) of an ascending sample: the
/// smallest value with at least q of the sample at or below it.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

inline Summary Summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  s.p50 = PercentileSorted(values, 0.50);
  s.p99 = PercentileSorted(values, 0.99);
  s.max = values.back();
  return s;
}

/// One arrival's timeline, in steady-clock ns. The generator writes
/// due/sent; the task that serves it writes start/end.
struct Arrival {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// A deliberate generator stall (tests only): before sending arrival
/// `at`, the generator sleeps `ns`.
struct GeneratorPause {
  size_t at = SIZE_MAX;
  int64_t ns = 0;
};

/// Sends arrival i at start_ns + offsets[i] by calling submit(i), which
/// must hand the work off (not run it inline) and arrange for the task to
/// fill arrivals[i].start_ns/end_ns. Returns once every arrival is sent.
template <typename Submit>
void RunOpenLoop(int64_t start_ns, const std::vector<int64_t>& offsets,
                 std::vector<Arrival>& arrivals, Submit&& submit,
                 GeneratorPause pause = {}) {
  arrivals.assign(offsets.size(), Arrival{});
  UseFineTimerSlack();
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (i == pause.at) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(pause.ns));
    }
    int64_t due = start_ns + offsets[i];
    WaitUntilNs(due);
    arrivals[i].due_ns = due;
    arrivals[i].sent_ns = NowNs();
    submit(i);
  }
}

/// Latency, lateness, queue wait and service time of completed arrivals,
/// in microseconds.
struct OpenLoopStats {
  Summary latency_us;     // due -> end
  Summary lateness_us;    // due -> sent
  Summary queue_wait_us;  // sent -> start
  Summary service_us;     // start -> end
  double busy_us = 0.0;   // total service time
  double span_us = 0.0;   // first due -> last end
};

inline OpenLoopStats AnalyzeOpenLoop(const std::vector<Arrival>& arrivals) {
  std::vector<double> latency, lateness, wait, service;
  latency.reserve(arrivals.size());
  lateness.reserve(arrivals.size());
  wait.reserve(arrivals.size());
  service.reserve(arrivals.size());
  OpenLoopStats out;
  int64_t first = INT64_MAX, last = INT64_MIN;
  for (const Arrival& a : arrivals) {
    if (a.end_ns == 0) continue;  // never completed
    latency.push_back(static_cast<double>(a.end_ns - a.due_ns) / 1e3);
    lateness.push_back(static_cast<double>(a.sent_ns - a.due_ns) / 1e3);
    wait.push_back(static_cast<double>(a.start_ns - a.sent_ns) / 1e3);
    service.push_back(static_cast<double>(a.end_ns - a.start_ns) / 1e3);
    out.busy_us += service.back();
    first = std::min(first, a.due_ns);
    last = std::max(last, a.end_ns);
  }
  if (last > first) out.span_us = static_cast<double>(last - first) / 1e3;
  out.latency_us = Summarize(std::move(latency));
  out.lateness_us = Summarize(std::move(lateness));
  out.queue_wait_us = Summarize(std::move(wait));
  out.service_us = Summarize(std::move(service));
  return out;
}

/// The latencies (us, due -> end) of the completed arrivals due in
/// [begin_ns, begin_ns + window_ns).
struct LatencyWindow {
  int64_t begin_ns = 0;
  std::vector<double> latency_us;
};

/// Splits completed arrivals into windows of `window_ns` by due time,
/// from the first due time; a trailing window with fewer than half the
/// mean window's arrivals is dropped.
inline std::vector<LatencyWindow> SplitWindows(
    const std::vector<Arrival>& arrivals, int64_t window_ns) {
  std::vector<LatencyWindow> windows;
  if (arrivals.empty()) return windows;
  const int64_t origin = arrivals.front().due_ns;
  for (const Arrival& a : arrivals) {
    if (a.end_ns == 0) continue;
    size_t w = static_cast<size_t>((a.due_ns - origin) / window_ns);
    while (w >= windows.size()) {
      windows.push_back(
          {origin + static_cast<int64_t>(windows.size()) * window_ns, {}});
    }
    windows[w].latency_us.push_back(static_cast<double>(a.end_ns - a.due_ns) /
                                    1e3);
  }
  const double mean_size = static_cast<double>(arrivals.size()) /
                           static_cast<double>(windows.size());
  if (windows.size() > 1 &&
      static_cast<double>(windows.back().latency_us.size()) < mean_size / 2) {
    windows.pop_back();
  }
  return windows;
}

/// Indices of the calmer half of a run's repeated measurements: those
/// during which the host stole no more cpu than it did in the median one,
/// least stolen first (ties keep their order). When the host stole
/// nothing, that is every measurement.
inline std::vector<size_t> CalmerHalf(const std::vector<double>& steal_ms) {
  std::vector<size_t> idx(steal_ms.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return steal_ms[a] < steal_ms[b];
  });
  if (idx.empty()) return idx;
  const double cutoff = steal_ms[idx[(idx.size() - 1) / 2]];
  while (steal_ms[idx.back()] > cutoff) idx.pop_back();
  return idx;
}

/// Latency summary of the chosen windows' arrivals, pooled.
inline Summary PooledLatency(const std::vector<LatencyWindow>& windows,
                             const std::vector<size_t>& chosen) {
  std::vector<double> pooled;
  for (size_t w : chosen) {
    pooled.insert(pooled.end(), windows[w].latency_us.begin(),
                  windows[w].latency_us.end());
  }
  return Summarize(std::move(pooled));
}

/// Host-noise probe: one thread reads the clock in a tight loop for
/// `seconds`; any gap longer than `threshold_us` is time the host took
/// the cpu away.
struct HostNoise {
  double stall_frac = 0.0;
  double stall_max_ms = 0.0;
};

inline HostNoise ProbeHost(double seconds, double threshold_us = 20.0) {
  const int64_t threshold_ns = static_cast<int64_t>(threshold_us * 1e3);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t prev = start, stalled = 0, worst = 0;
  for (int64_t now = NowNs(); now < end; now = NowNs()) {
    int64_t gap = now - prev;
    if (gap > threshold_ns) {
      stalled += gap;
      worst = std::max(worst, gap);
    }
    prev = now;
  }
  HostNoise noise;
  noise.stall_frac =
      static_cast<double>(stalled) / static_cast<double>(prev - start);
  noise.stall_max_ms = static_cast<double>(worst) / 1e6;
  return noise;
}

}  // namespace perfbench

#endif  // QUERC_PERFBENCH_LOADGEN_H_
