#ifndef SWOLE_COMMON_TIMER_H_
#define SWOLE_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

// Wall-clock timing for benchmarks, JIT compiles and query latencies.

namespace swole {

class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace swole

#endif  // SWOLE_COMMON_TIMER_H_
