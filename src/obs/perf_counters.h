#ifndef SWOLE_OBS_PERF_COUNTERS_H_
#define SWOLE_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <memory>
#include <string>

// Hardware access-pattern counters via perf_event_open(2): cycles,
// instructions, LLC misses, and branch misses for the calling thread and —
// through inherit=1 — every worker it spawns while the set is running.
// This is the micro-architectural evidence the paper's claim rests on:
// SWOLE trades extra instructions for fewer LLC misses. SWOLE_PERF_COUNTERS=1
// attaches the counts to each governed query's trace as hw.* attributes.
//
// Unavailability is the common case (containers and CI set
// perf_event_paranoid high, seccomp may return ENOSYS, non-Linux builds
// have no syscall at all), so TryCreate returns nullptr with a reason
// instead of failing: callers run uncounted and report
// "counters unavailable". The fault site `perf_open`
// (SWOLE_FAULT=perf_open:1.0) forces that path deterministically in tests.
//
// Off by default; GovernanceScope opens a set per query when
// SWOLE_PERF_COUNTERS=1 and attaches the readings to the trace root as
// hw.* attributes.

namespace swole::obs {

struct HwCounts {
  bool valid = false;  // false when any counter failed to read
  int64_t cycles = 0;
  int64_t instructions = 0;
  int64_t llc_misses = 0;
  int64_t branch_misses = 0;

  /// "cycles=... instructions=... llc_misses=... branch_misses=..." or
  /// "unavailable".
  std::string ToString() const;
};

class PerfCounterSet {
 public:
  static constexpr int kEvents = 4;

  /// Opens the four counters disabled; nullptr when perf events are
  /// unavailable (EACCES, ENOSYS, ENOENT, non-Linux), with the reason in
  /// `*error` when non-null. Counters are opened with inherit=1 so worker
  /// threads spawned while running are included.
  static std::unique_ptr<PerfCounterSet> TryCreate(std::string* error = nullptr);

  ~PerfCounterSet();

  PerfCounterSet(const PerfCounterSet&) = delete;
  PerfCounterSet& operator=(const PerfCounterSet&) = delete;

  /// Reset + enable all counters.
  void Start();
  /// Disable all counters; Read() then returns the stopped totals.
  void Stop();
  HwCounts Read() const;

 private:
  PerfCounterSet() = default;
  int fds_[kEvents] = {-1, -1, -1, -1};
};

/// SWOLE_PERF_COUNTERS=1 (parsed once, warn-on-malformed).
bool PerfCountersRequested();

}  // namespace swole::obs

#endif  // SWOLE_OBS_PERF_COUNTERS_H_
