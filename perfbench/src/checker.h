#ifndef SWOLE_PERFBENCH_CHECKER_H_
#define SWOLE_PERFBENCH_CHECKER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/result.h"

// The benchmark's oracle gate. Every engine execution the benchmark makes,
// timed or not, is compared bit-for-bit with the ReferenceEngine's result
// for the same plan on the same data. A non-OK Status or any difference
// counts as one failure; the run then reports correct=false, the failures
// enter error_rate, and the command exits non-zero.

namespace perfbench {

class Checker {
 public:
  /// Records one attempt. Returns true when `result` is OK and equal to
  /// `oracle`. Thread-safe (serving clients check from their own threads).
  bool Check(const swole::Result<swole::QueryResult>& result,
             const swole::QueryResult& oracle, const std::string& label);

  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

  /// The first few failures, "<label>: <reason>", for the report.
  std::vector<std::string> FailureSamples() const;

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> samples_;  // guarded by mu_
};

/// Feeds a Checker correct results and perturbed copies of real engine
/// results (a small TPC-H and micro data set) and verifies that exactly the
/// perturbed ones are counted as failures. Returns the number of
/// expectations that did not hold (0 = pass) and prints one line each.
int RunCheckerSelfTest();

}  // namespace perfbench

#endif  // SWOLE_PERFBENCH_CHECKER_H_
