// Worker-pool executor for multi-seed experiment runs.
//
// Every paper figure is an average over N seeded runs, and each run is a
// share-nothing deterministic simulation (its own Simulator, Network, and
// root RNG). That makes the batch embarrassingly parallel: the pool needs no
// synchronization beyond one shared next-index counter.
//
// Each idle worker takes the next unclaimed index, so one straggler seed
// cannot serialize the tail of a batch. Results land in index-addressed
// slots, which makes aggregation order — and therefore every bench table —
// independent of thread interleaving: `--jobs 1` and `--jobs 8` print
// byte-identical output.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace wp2p::exp {

// Cumulative wall-clock accounting across all batches run on one pool.
// task_seconds sums the wall time of the individual tasks, so
// task_seconds / wall_seconds is the observed parallel speedup.
struct RunnerReport {
  int tasks = 0;
  int batches = 0;
  double task_seconds = 0.0;
  double wall_seconds = 0.0;
  double speedup() const { return wall_seconds > 0.0 ? task_seconds / wall_seconds : 1.0; }
};

class ParallelRunner {
 public:
  // jobs <= 0 selects one worker per hardware thread.
  explicit ParallelRunner(int jobs = 0) { set_jobs(jobs); }

  static int hardware_jobs() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

  void set_jobs(int jobs) { jobs_ = jobs > 0 ? jobs : hardware_jobs(); }
  int jobs() const { return jobs_; }
  const RunnerReport& report() const { return report_; }

  // Run fn(i) for every i in [0, count). Blocks until the batch completes;
  // the first exception thrown by a task is rethrown here. Not reentrant —
  // call from one thread, and do not nest batches inside tasks.
  void for_each_index(int count, const std::function<void(int)>& fn) {
    if (count <= 0) return;
    using Clock = std::chrono::steady_clock;
    const auto batch_start = Clock::now();
    const int workers = std::min(jobs_, count);
    std::vector<double> task_seconds(static_cast<std::size_t>(workers), 0.0);

    auto timed_run = [&](int worker, int index) {
      const auto start = Clock::now();
      fn(index);
      task_seconds[static_cast<std::size_t>(worker)] +=
          std::chrono::duration<double>(Clock::now() - start).count();
    };

    if (workers == 1) {
      for (int i = 0; i < count; ++i) timed_run(0, i);
    } else {
      // Tasks never enqueue tasks, so an index past the end means done.
      std::atomic<int> next{0};
      std::mutex error_mutex;
      std::exception_ptr first_error;
      auto worker_main = [&](int self) {
        try {
          for (int index = next++; index < count; index = next++) timed_run(self, index);
        } catch (...) {
          std::lock_guard lock{error_mutex};
          if (!first_error) first_error = std::current_exception();
        }
      };
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(workers));
      for (int w = 0; w < workers; ++w) threads.emplace_back(worker_main, w);
      for (auto& t : threads) t.join();
      if (first_error) std::rethrow_exception(first_error);
    }

    report_.tasks += count;
    report_.batches += 1;
    for (double s : task_seconds) report_.task_seconds += s;
    report_.wall_seconds += std::chrono::duration<double>(Clock::now() - batch_start).count();
  }

  // As for_each_index, but collect fn's results in index order. T must be
  // default-constructible; slots are written exactly once, each by the worker
  // that ran the index, so no synchronization on the result vector is needed.
  template <typename T>
  std::vector<T> map(int count, const std::function<T(int)>& fn) {
    std::vector<T> results(static_cast<std::size_t>(std::max(count, 0)));
    for_each_index(count, [&](int i) { results[static_cast<std::size_t>(i)] = fn(i); });
    return results;
  }

 private:
  int jobs_ = 1;
  RunnerReport report_;
};

}  // namespace wp2p::exp
