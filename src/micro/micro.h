#ifndef SWOLE_MICRO_MICRO_H_
#define SWOLE_MICRO_MICRO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "plan/plan.h"

// The paper's microbenchmark (§IV-B, Fig. 7): a 100M-row table R with
// uniform values and two join tables S (1K and 1M rows). All sizes scale
// down by default so a figure regenerates in minutes on one core; set
// SWOLE_MICRO_R / SWOLE_MICRO_S_LARGE to restore paper scale.
//
// Schema (Fig. 7a), with physical types following the null-suppression
// convention (narrowest type that fits the cardinality):
//   R: r_a int8 (card 100), r_b int8 (card 100, >= 1 so it can divide),
//      r_x int8 (card 100, the [SEL] predicate column),
//      r_y int8 (always 1 — the "and r_y = 1" conjunct),
//      r_c_* group-by keys at 4 cardinalities (Fig. 9),
//      r_fk_small / r_fk_large int32 fks into S_small / S_large.
//   S: s_pk dense int32, s_x int8 (card 100, the [SEL] predicate).

namespace swole {

struct MicroConfig {
  int64_t r_rows = 4'000'000;
  int64_t s_small_rows = 1'000;
  int64_t s_large_rows = 1'000'000;
  // Group-key cardinalities for micro Q2 (paper: 10, 1K, 100K, 10M).
  // The largest is capped at r_rows / 4 so every key has a few rows.
  std::vector<int64_t> c_cardinalities = {10, 1'000, 100'000, 10'000'000};
  uint64_t seed = 42;

  // Average byte length of r_s, the raw variable-length string column
  // (actual lengths are uniform in [len/2, 3*len/2]).
  int64_t str_len = 48;

  /// Reads SWOLE_MICRO_R / SWOLE_MICRO_S_SMALL / SWOLE_MICRO_S_LARGE /
  /// SWOLE_MICRO_SEED / SWOLE_MICRO_STRLEN over the defaults.
  static MicroConfig FromEnv();
};

/// Name of the r_c column for cardinality index `i` ("r_c_10", "r_c_1000",
/// ...; the capped value is reflected in the name).
struct MicroData {
  /// Generates R, S_small, S_large and registers the fk indexes.
  static std::unique_ptr<MicroData> Generate(const MicroConfig& config);

  MicroConfig config;
  Catalog catalog;  // tables: "r", "s_small", "s_large"
  std::vector<std::string> c_columns;      // per cardinality
  std::vector<int64_t> c_actual;           // actual (capped) cardinalities
};

// ---- Query builders (Fig. 7b). SEL values are percentages 0..100. ----

/// Q1: select sum(r_a [OP] r_b) from R where r_x < [SEL] and r_y = 1.
QueryPlan MicroQ1(bool division, int64_t sel);

/// Q2: Q1(*) with `group by <c_column>`.
QueryPlan MicroQ2(const std::string& c_column, int64_t c_cardinality,
                  int64_t sel);

/// Q3: select sum(r_x * [COL]) ... — COL = r_b reuses one predicate
/// attribute, COL = r_y reuses both (Fig. 10).
QueryPlan MicroQ3(bool reuse_both, int64_t sel);

/// Q4: join with S: sum(r_a*r_b) where r_fk = s_pk and r_x < [SEL1] and
/// s_x < [SEL2]. `large_s` picks S_large (1M) vs S_small (1K).
QueryPlan MicroQ4(bool large_s, int64_t sel1, int64_t sel2);

/// Q5: groupjoin: select r_fk, sum(r_a*r_b) ... where r_fk = s_pk and
/// s_x < [SEL] group by r_fk.
QueryPlan MicroQ5(bool large_s, int64_t sel, int64_t s_rows);

/// Q6 (string placement, cost/string_placement.h): sum(r_a*r_b) where
/// r_fk = s_pk and s_x < [SEL] and r_s LIKE '%zebra%'. The dim filter is
/// the only non-string qualification, so [SEL] directly sets sigma_other
/// and sweeping it crosses the push-vs-pull flip point (~44% with the
/// default cost profile and 48-byte strings).
QueryPlan MicroQ6(bool large_s, int64_t sel);

}  // namespace swole

#endif  // SWOLE_MICRO_MICRO_H_
