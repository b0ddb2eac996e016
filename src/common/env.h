#ifndef SWOLE_COMMON_ENV_H_
#define SWOLE_COMMON_ENV_H_

#include <cstdint>
#include <string>

// Environment-variable configuration used by the benchmark harnesses so the
// paper's experiments can be re-run at different scales without recompiling
// (e.g. SWOLE_SF=1 ./bench/scaling_bench).

namespace swole {

/// Value of env var `name` parsed as int64, or `fallback` if unset/invalid.
int64_t GetEnvInt64(const char* name, int64_t fallback);

/// Value of env var `name` parsed as double, or `fallback` if unset/invalid.
double GetEnvDouble(const char* name, double fallback);

/// Value of env var `name`, or `fallback` if unset.
std::string GetEnvString(const char* name, const std::string& fallback);

}  // namespace swole

#endif  // SWOLE_COMMON_ENV_H_
