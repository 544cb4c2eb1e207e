// calibrate — a fixed probe of how fast the host runs right now.
//
//   calibrate        prints the host seconds one fixed round of work took
//
// The host the benchmark runs on is shared, and its speed drifts by a third
// over minutes as neighbours come and go. perf/run.py runs this probe between
// driver processes and scales wall_s by (reference seconds / probe seconds),
// so the drift cancels. The probe shares no code with src/, so a change to
// the simulator never moves it; its work is a small event loop shaped like the
// simulator's: a binary heap of 64-byte events, a hash map of live ids and
// scattered reads and writes over a 16 MiB table. Changing this file changes
// every calibrated time, so it changes only with a re-baselined benchmark.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace {

struct Event {
  std::uint64_t time;
  std::uint64_t payload[7];
  bool operator>(const Event& other) const { return time > other.time; }
};

class XorShift {
 public:
  std::uint64_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

 private:
  std::uint64_t state_ = 88172645463325252ULL;
};

std::uint64_t round_of_work() {
  XorShift rng;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> live;
  std::vector<std::uint64_t> table(std::size_t{1} << 21);
  const std::size_t mask = table.size() - 1;
  std::uint64_t sum = 0;
  for (int i = 0; i < 20000; ++i) queue.push(Event{rng.next() % 1000000, {}});
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t now = queue.top().time;
    queue.pop();
    const std::uint64_t r = rng.next();
    table[r & mask] += now;
    live[r & 0xffff] = now;
    sum += table[(r >> 21) & mask];
    queue.push(Event{now + 1 + rng.next() % 100000, {}});
  }
  return sum + live.size();
}

}  // namespace

int main() {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t sum = round_of_work();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // The checksum keeps the work from being optimised away.
  std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(sum & 0xff));
  return 0;
}
