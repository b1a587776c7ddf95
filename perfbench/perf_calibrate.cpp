// perf_calibrate: a fixed amount of simulator-shaped work, for measuring how
// fast the host is right now.
//
//   perf_calibrate THREADS
//
// Each thread runs the same deterministic loop: a binary-heap event queue
// (pop the earliest event, schedule its successor) whose events read and
// update random slots of an 8 MiB table, so the loop is bound by the same
// things as the packet simulator — branchy heap code and cache misses. It
// shares no code with the repository, so no change to the simulator moves
// its time; only the host does. The benchmark times it next to every
// campaign run and scales the campaign's timings by it (see README.md).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <queue>
#include <thread>
#include <vector>

namespace {

constexpr std::size_t kPending = 8192;
constexpr std::size_t kTableSlots = (8u << 20) / sizeof(std::uint64_t);
constexpr std::uint64_t kEvents = 1'500'000;

struct Event {
  std::uint64_t time;
  std::uint64_t slot;
  bool operator>(const Event& other) const { return time > other.time; }
};

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::uint64_t run(std::uint64_t seed) {
  std::vector<std::uint64_t> table(kTableSlots, 1);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t rng = seed | 1;
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.push({xorshift(rng) % 1'000'000, xorshift(rng) % kTableSlots});
  }
  std::uint64_t acc = 0;
  for (std::uint64_t n = 0; n < kEvents; ++n) {
    const Event e = queue.top();
    queue.pop();
    std::uint64_t& cell = table[e.slot];
    cell = cell * 6364136223846793005ull + e.time;
    acc += cell >> 33;
    queue.push({e.time + 1 + (xorshift(rng) & 0xffff),
                (e.slot + (cell >> 40)) % kTableSlots});
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 1;
  if (threads < 1) {
    std::fprintf(stderr, "usage: perf_calibrate THREADS\n");
    return 2;
  }
  std::vector<std::uint64_t> out(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&out, t] {
      out[static_cast<std::size_t>(t)] = run(static_cast<std::uint64_t>(t) + 1);
    });
  }
  for (auto& th : pool) th.join();
  std::uint64_t sum = 0;
  for (const std::uint64_t v : out) sum += v;
  std::printf("%llu\n", static_cast<unsigned long long>(sum));
  return 0;
}
