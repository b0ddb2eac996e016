// Unit tests for src/storage: types, columns, dictionary, table, fk index,
// positional bitmaps (plain + compressed).

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/fault_injection.h"
#include "common/query_abort.h"
#include "common/random.h"
#include "storage/bitmap.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/fk_index.h"
#include "storage/string_column.h"
#include "storage/table.h"
#include "storage/types.h"

namespace swole {
namespace {

TEST(TypesTest, PhysicalSizes) {
  EXPECT_EQ(PhysicalTypeSize(PhysicalType::kInt8), 1);
  EXPECT_EQ(PhysicalTypeSize(PhysicalType::kInt16), 2);
  EXPECT_EQ(PhysicalTypeSize(PhysicalType::kInt32), 4);
  EXPECT_EQ(PhysicalTypeSize(PhysicalType::kInt64), 8);
}

TEST(TypesTest, NarrowestPhysicalType) {
  EXPECT_EQ(NarrowestPhysicalType(0, 100), PhysicalType::kInt8);
  EXPECT_EQ(NarrowestPhysicalType(-128, 127), PhysicalType::kInt8);
  EXPECT_EQ(NarrowestPhysicalType(0, 128), PhysicalType::kInt16);
  EXPECT_EQ(NarrowestPhysicalType(0, 40000), PhysicalType::kInt32);
  EXPECT_EQ(NarrowestPhysicalType(0, int64_t{1} << 40),
            PhysicalType::kInt64);
}

// Exact width boundaries and one past them, both directions — the
// width-specialized kernels trust this classification, so a column
// misclassified by one at an edge would execute at the wrong lane width.
TEST(TypesTest, NarrowestPhysicalTypeBoundaries) {
  // int8 edges: [-128, 127] fits; one past either end promotes.
  EXPECT_EQ(NarrowestPhysicalType(-128, -128), PhysicalType::kInt8);
  EXPECT_EQ(NarrowestPhysicalType(127, 127), PhysicalType::kInt8);
  EXPECT_EQ(NarrowestPhysicalType(-129, 0), PhysicalType::kInt16);
  EXPECT_EQ(NarrowestPhysicalType(-129, 127), PhysicalType::kInt16);
  EXPECT_EQ(NarrowestPhysicalType(-128, 128), PhysicalType::kInt16);

  // int16 edges: [-32768, 32767].
  EXPECT_EQ(NarrowestPhysicalType(-32768, 32767), PhysicalType::kInt16);
  EXPECT_EQ(NarrowestPhysicalType(-32769, 0), PhysicalType::kInt32);
  EXPECT_EQ(NarrowestPhysicalType(0, 32768), PhysicalType::kInt32);

  // int32 edges: [-2^31, 2^31 - 1].
  EXPECT_EQ(NarrowestPhysicalType(-(int64_t{1} << 31), (int64_t{1} << 31) - 1),
            PhysicalType::kInt32);
  EXPECT_EQ(NarrowestPhysicalType(-(int64_t{1} << 31) - 1, 0),
            PhysicalType::kInt64);
  EXPECT_EQ(NarrowestPhysicalType(0, int64_t{1} << 31), PhysicalType::kInt64);

  // int64 extremes classify without overflowing the classifier itself.
  EXPECT_EQ(NarrowestPhysicalType(std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max()),
            PhysicalType::kInt64);
}

TEST(TypesTest, DecimalScaleFactor) {
  EXPECT_EQ(DecimalScaleFactor(0), 1);
  EXPECT_EQ(DecimalScaleFactor(2), 100);
  EXPECT_EQ(DecimalScaleFactor(6), 1000000);
}

TEST(TypesTest, DispatchBindsMatchingType) {
  int width = DispatchPhysical(PhysicalType::kInt16, []<typename T>() {
    return static_cast<int>(sizeof(T));
  });
  EXPECT_EQ(width, 2);
}

TEST(ColumnTest, AppendAndRead) {
  Column col("x", ColumnType::Int(PhysicalType::kInt8));
  for (int i = 0; i < 10; ++i) col.Append(i * 3);
  EXPECT_EQ(col.size(), 10);
  EXPECT_EQ(col.ValueAt(4), 12);
  const int8_t* raw = col.Data<int8_t>();
  EXPECT_EQ(raw[9], 27);
  EXPECT_EQ(col.MinValue(), 0);
  EXPECT_EQ(col.MaxValue(), 27);
  EXPECT_EQ(col.ByteSize(), 10);
}

TEST(ColumnTest, AppendN) {
  Column col("x", ColumnType::Int(PhysicalType::kInt32));
  int64_t values[] = {5, -7, 1000000};
  col.AppendN(values, 3);
  EXPECT_EQ(col.size(), 3);
  EXPECT_EQ(col.ValueAt(1), -7);
  EXPECT_EQ(col.ValueAt(2), 1000000);
}

// Append/AppendN at the exact representable edges of every physical width:
// the values must survive the narrow store and widen back identically, and
// the cached min/max stats (which drive NarrowestPhysicalType re-derivation
// and zone pruning) must land exactly on the edges.
TEST(ColumnTest, AppendNRoundTripsWidthEdges) {
  struct Edge {
    PhysicalType type;
    int64_t min;
    int64_t max;
  };
  const Edge edges[] = {
      {PhysicalType::kInt8, -128, 127},
      {PhysicalType::kInt16, -32768, 32767},
      {PhysicalType::kInt32, -(int64_t{1} << 31), (int64_t{1} << 31) - 1},
      {PhysicalType::kInt64, std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max()},
  };
  for (const Edge& e : edges) {
    Column col("x", ColumnType::Int(e.type));
    const int64_t values[] = {e.min, 0, e.max, e.min + 1, e.max - 1};
    col.AppendN(values, 5);
    ASSERT_EQ(col.size(), 5);
    for (int64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(col.ValueAt(i), values[i])
          << PhysicalTypeName(e.type) << " row " << i;
    }
    EXPECT_EQ(col.MinValue(), e.min) << PhysicalTypeName(e.type);
    EXPECT_EQ(col.MaxValue(), e.max) << PhysicalTypeName(e.type);
    EXPECT_EQ(col.ByteSize(), 5 * PhysicalTypeSize(e.type));
  }
}

#ifndef NDEBUG
// One past the width edge is a programming error AppendN's per-element
// range DCHECK catches in debug builds (release narrows silently, which is
// why NarrowestPhysicalType classification must be exact).
TEST(ColumnDeathTest, AppendNRejectsOutOfRangeInDebug) {
  const int64_t above = 128;
  const int64_t below = -129;
  EXPECT_DEATH(
      {
        Column col("x", ColumnType::Int(PhysicalType::kInt8));
        col.AppendN(&above, 1);
      },
      "");
  EXPECT_DEATH(
      {
        Column col("x", ColumnType::Int(PhysicalType::kInt8));
        col.AppendN(&below, 1);
      },
      "");
  EXPECT_DEATH(
      {
        Column col("x", ColumnType::Int(PhysicalType::kInt16));
        const int64_t v = 32768;
        col.AppendN(&v, 1);
      },
      "");
  EXPECT_DEATH(
      {
        Column col("x", ColumnType::Int(PhysicalType::kInt32));
        const int64_t v = int64_t{1} << 31;
        col.AppendN(&v, 1);
      },
      "");
}
#endif

TEST(ColumnTest, StatsInvalidateOnAppend) {
  Column col("x", ColumnType::Int(PhysicalType::kInt64));
  col.Append(5);
  EXPECT_EQ(col.MaxValue(), 5);
  col.Append(99);
  EXPECT_EQ(col.MaxValue(), 99);
}

TEST(DictionaryTest, SortedDenseCodes) {
  Dictionary dict =
      Dictionary::FromValues({"banana", "apple", "cherry", "apple"});
  EXPECT_EQ(dict.size(), 3);
  EXPECT_EQ(dict.Lookup("apple"), 0);
  EXPECT_EQ(dict.Lookup("banana"), 1);
  EXPECT_EQ(dict.Lookup("cherry"), 2);
  EXPECT_EQ(dict.Lookup("durian"), -1);
  EXPECT_EQ(dict.At(1), "banana");
}

TEST(DictionaryTest, LikeMaskAndMatches) {
  Dictionary dict = Dictionary::FromValues(
      {"PROMO ANODIZED", "STANDARD BRUSHED", "PROMO PLATED", "ECONOMY"});
  std::vector<int32_t> matches = dict.MatchLike("PROMO%");
  ASSERT_EQ(matches.size(), 2u);
  std::vector<uint8_t> mask = dict.LikeMask("PROMO%");
  int set = 0;
  for (int32_t code = 0; code < dict.size(); ++code) {
    if (mask[code]) {
      ++set;
      EXPECT_TRUE(dict.At(code).starts_with("PROMO"));
    }
  }
  EXPECT_EQ(set, 2);
}

TEST(ColumnTest, StringViaDictionary) {
  auto dict = std::make_shared<Dictionary>(
      Dictionary::FromValues({"LOW", "HIGH", "MEDIUM"}));
  Column col("prio", ColumnType::String());
  col.set_dictionary(dict);
  col.Append(dict->Lookup("HIGH"));
  col.Append(dict->Lookup("LOW"));
  EXPECT_EQ(col.StringAt(0), "HIGH");
  EXPECT_EQ(col.StringAt(1), "LOW");
}

TEST(DictionaryTest, EmptyStringAndDuplicateInsertionOrder) {
  // Duplicates collapse and codes are assigned in sorted order regardless of
  // insertion order; the empty string is a legal entry and sorts first.
  Dictionary dict = Dictionary::FromValues({"b", "", "a", "b", "", "a", "b"});
  ASSERT_EQ(dict.size(), 3);
  EXPECT_EQ(dict.Lookup(""), 0);
  EXPECT_EQ(dict.Lookup("a"), 1);
  EXPECT_EQ(dict.Lookup("b"), 2);
  EXPECT_EQ(dict.At(0), "");
  // The empty entry matches exactly the all-'%' patterns.
  std::vector<int32_t> empty_only = dict.MatchLike("");
  ASSERT_EQ(empty_only.size(), 1u);
  EXPECT_EQ(empty_only[0], 0);
  EXPECT_EQ(dict.MatchLike("%").size(), 3u);
  std::vector<uint8_t> underscore = dict.LikeMask("_");
  EXPECT_EQ(underscore[0], 0);  // '' has no byte for '_' to consume
  EXPECT_EQ(underscore[1], 1);
  EXPECT_EQ(underscore[2], 1);
}

TEST(DictionaryTest, LargeValuesRoundTrip) {
  // Values past 64KB exercise any accidental uint16 length assumptions.
  const std::string big_x(70'000, 'x');
  std::string big_y = big_x;
  big_y.back() = 'y';  // differs only in the final byte
  Dictionary dict = Dictionary::FromValues({big_y, "short", big_x});
  ASSERT_EQ(dict.size(), 3);
  EXPECT_EQ(dict.At(dict.Lookup(big_x)), big_x);
  EXPECT_EQ(dict.At(dict.Lookup(big_y)), big_y);
  EXPECT_NE(dict.Lookup(big_x), dict.Lookup(big_y));
  // A pattern that forces the matcher to scan the full value.
  std::vector<int32_t> tail = dict.MatchLike("x%y");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(dict.At(tail[0]), big_y);
}

TEST(DictionaryDeathTest, AtRejectsOutOfRangeCodes) {
  // At() range checks are SWOLE_CHECKs (always on): a code from a foreign
  // dictionary is data corruption, not a recoverable lookup miss.
  Dictionary dict = Dictionary::FromValues({"a", "b"});
  EXPECT_DEATH(dict.At(-1), "");
  EXPECT_DEATH(dict.At(2), "");
}

TEST(TextDataTest, AppendAndGet) {
  TextData text;
  EXPECT_EQ(text.size(), 0);
  text.Append("hello");
  text.Append("");
  text.Append("worlds end");
  EXPECT_EQ(text.size(), 3);
  EXPECT_EQ(text.Get(0), "hello");
  EXPECT_EQ(text.Get(1), "");
  EXPECT_EQ(text.Get(2), "worlds end");
  EXPECT_GE(text.ByteSize(), 15);
}

// Allocation-charge hook used by the StringColumn governance tests: tracks
// the net charged bytes, enforces an optional budget, and routes through the
// fault injector at the site name exactly like QueryContext::TryCharge does.
struct HookLedger {
  int64_t charged = 0;
  int64_t budget = std::numeric_limits<int64_t>::max();
  int refusals = 0;
};

int LedgerHook(void* ctx, int64_t delta, const char* site) {
  auto* ledger = static_cast<HookLedger*>(ctx);
  if (delta > 0) {
    if (FaultInjector::Global().ShouldFail(site) ||
        ledger->charged + delta > ledger->budget) {
      ++ledger->refusals;
      return static_cast<int>(AbortReason::kBudget);
    }
  }
  ledger->charged += delta;
  return 0;
}

TEST(StringColumnTest, EmptyEmbeddedNulAndLargeValuesRoundTrip) {
  StringColumn col;
  const std::string big(70'000, 'q');
  const std::string_view nul_value("a\0b", 3);
  col.Append("");
  col.Append(nul_value);
  col.Append(big);
  col.Append("");
  ASSERT_EQ(col.size(), 4);
  EXPECT_EQ(col.Get(0), "");
  EXPECT_EQ(col.Get(1), nul_value);
  EXPECT_EQ(col.Get(2), big);
  EXPECT_EQ(col.Get(3), "");
  EXPECT_EQ(col.total_bytes(), 3 + 70'000);
  EXPECT_EQ(col.null_count(), 0);
  StringColumn::Stats stats = col.ComputeStats();
  EXPECT_EQ(stats.min_len, 0u);
  EXPECT_EQ(stats.max_len, 70'000u);
  EXPECT_EQ(stats.total_bytes, 70'003);
  EXPECT_DOUBLE_EQ(stats.avg_len, 70'003 / 4.0);
}

TEST(StringColumnTest, NullBitmapBackfillsEarlierRows) {
  StringColumn col;
  col.Append("first");
  col.Append("second");
  EXPECT_EQ(col.null_count(), 0);
  col.AppendNull();
  col.Append("after");
  col.AppendNull();
  ASSERT_EQ(col.size(), 5);
  EXPECT_EQ(col.null_count(), 2);
  // Rows appended before the first null read as non-null, and a null row's
  // payload is the empty view.
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_FALSE(col.IsNull(1));
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_FALSE(col.IsNull(3));
  EXPECT_TRUE(col.IsNull(4));
  EXPECT_EQ(col.Get(2), "");
  EXPECT_EQ(col.Get(3), "after");
}

TEST(StringColumnTest, MemHookChargesFootprintAndMoveTransfersIt) {
  HookLedger ledger;
  {
    StringColumn col;
    for (int i = 0; i < 100; ++i) col.Append("some padding value");
    // Attaching mid-life charges the existing footprint, not just future
    // growth.
    col.SetMemHook(&LedgerHook, &ledger, "string_arena");
    EXPECT_GE(ledger.charged, col.ByteSize());
    const int64_t after_attach = ledger.charged;
    for (int i = 0; i < 5'000; ++i) col.Append("grow the arena further");
    EXPECT_GT(ledger.charged, after_attach);

    // The move transfers the registration without double-charging or
    // releasing; the destination's destructor settles the account.
    const int64_t before_move = ledger.charged;
    StringColumn dst(std::move(col));
    EXPECT_EQ(ledger.charged, before_move);
    ASSERT_EQ(dst.size(), 5'100);
    EXPECT_EQ(dst.Get(0), "some padding value");
    EXPECT_EQ(dst.Get(5'099), "grow the arena further");
  }
  EXPECT_EQ(ledger.charged, 0);
  EXPECT_EQ(ledger.refusals, 0);
}

TEST(StringColumnTest, MemHookRefusalThrowsQueryAbortWithoutAllocating) {
  HookLedger ledger;
  StringColumn col;
  col.Append("pre-existing");
  col.SetMemHook(&LedgerHook, &ledger, "string_arena");
  ledger.budget = ledger.charged;  // freeze: any growth is refused
  const std::string big(1 << 20, 'z');
  try {
    col.Append(big);
    FAIL() << "expected QueryAbort";
  } catch (const QueryAbort& abort) {
    EXPECT_EQ(abort.reason, AbortReason::kBudget);
    EXPECT_STREQ(abort.site, "string_arena");
    EXPECT_GT(abort.requested_bytes, 0);
  }
  EXPECT_EQ(ledger.refusals, 1);
  // The charge is asked before the reserve, so the refused append left the
  // column untouched.
  ASSERT_EQ(col.size(), 1);
  EXPECT_EQ(col.Get(0), "pre-existing");
  // Lifting the budget lets the same append through.
  ledger.budget = std::numeric_limits<int64_t>::max();
  col.Append(big);
  ASSERT_EQ(col.size(), 2);
  EXPECT_EQ(col.Get(1), big);
}

TEST(StringColumnTest, StringArenaFaultSiteInjectsDeterministically) {
  // The "string_arena" fault site (SWOLE_FAULT=string_arena:1.0) fires on
  // the growth charge: with probability 1 every charged append aborts.
  FaultInjector::Global().ClearAll();
  HookLedger ledger;
  StringColumn col;
  col.SetMemHook(&LedgerHook, &ledger, "string_arena");
  FaultInjector::Global().SetFault("string_arena", 1.0);
  EXPECT_THROW(col.Append("boom"), QueryAbort);
  EXPECT_EQ(col.size(), 0);
  EXPECT_GE(FaultInjector::Global().InjectedCount("string_arena"), 1);
  FaultInjector::Global().ClearAll();
  col.Append("boom");
  ASSERT_EQ(col.size(), 1);
  EXPECT_EQ(col.Get(0), "boom");
}

#ifndef NDEBUG
// Get's range checks are debug-only DCHECKs (the kernels index the arena on
// the hot path); out-of-range rows must trap in debug builds.
TEST(StringColumnDeathTest, GetRejectsOutOfRangeInDebug) {
  StringColumn col;
  col.Append("only");
  EXPECT_DEATH(col.Get(-1), "");
  EXPECT_DEATH(col.Get(1), "");
}
#endif

std::unique_ptr<Column> MakeIntColumn(const std::string& name,
                                      std::vector<int64_t> values) {
  auto col =
      std::make_unique<Column>(name, ColumnType::Int(PhysicalType::kInt64));
  for (int64_t v : values) col->Append(v);
  return col;
}

TEST(TableTest, AddAndLookup) {
  Table t("r");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1, 2, 3})).ok());
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("b", {4, 5, 6})).ok());
  EXPECT_EQ(t.num_rows(), 3);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_FALSE(t.HasColumn("z"));
  EXPECT_EQ(t.ColumnRef("b").ValueAt(2), 6);
  EXPECT_FALSE(t.GetColumn("z").ok());
  EXPECT_EQ(t.ColumnNames().size(), 2u);
  EXPECT_EQ(t.ByteSize(), 48);
}

TEST(TableTest, RejectsMismatchedLength) {
  Table t("r");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1, 2, 3})).ok());
  Status st = t.AddColumn(MakeIntColumn("b", {4, 5}));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, RejectsDuplicateName) {
  Table t("r");
  ASSERT_TRUE(t.AddColumn(MakeIntColumn("a", {1})).ok());
  EXPECT_EQ(t.AddColumn(MakeIntColumn("a", {2})).code(),
            StatusCode::kAlreadyExists);
}

TEST(FkIndexTest, DensePrimaryKeys) {
  auto pk = MakeIntColumn("pk", {100, 101, 102, 103});
  auto fk = MakeIntColumn("fk", {103, 100, 100, 102, 101});
  Result<FkIndex> index = FkIndex::Build(*fk, *pk);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->size(), 5);
  EXPECT_EQ(index->referenced_size(), 4);
  EXPECT_EQ(index->OffsetAt(0), 3u);
  EXPECT_EQ(index->OffsetAt(1), 0u);
  EXPECT_EQ(index->OffsetAt(3), 2u);
}

TEST(FkIndexTest, SparsePrimaryKeys) {
  auto pk = MakeIntColumn("pk", {7, 99, 23});
  auto fk = MakeIntColumn("fk", {23, 7, 99, 99});
  Result<FkIndex> index = FkIndex::Build(*fk, *pk);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->OffsetAt(0), 2u);
  EXPECT_EQ(index->OffsetAt(1), 0u);
  EXPECT_EQ(index->OffsetAt(2), 1u);
  EXPECT_EQ(index->OffsetAt(3), 1u);
}

TEST(FkIndexTest, DetectsIntegrityViolation) {
  auto pk = MakeIntColumn("pk", {0, 1, 2});
  auto fk = MakeIntColumn("fk", {0, 5});
  EXPECT_FALSE(FkIndex::Build(*fk, *pk).ok());
}

TEST(FkIndexTest, DetectsDuplicatePk) {
  auto pk = MakeIntColumn("pk", {3, 9, 3});
  auto fk = MakeIntColumn("fk", {9});
  EXPECT_FALSE(FkIndex::Build(*fk, *pk).ok());
}

TEST(TableTest, FkIndexRegistration) {
  Table s("s");
  ASSERT_TRUE(s.AddColumn(MakeIntColumn("pk", {0, 1, 2})).ok());
  Table r("r");
  ASSERT_TRUE(r.AddColumn(MakeIntColumn("fk", {2, 0, 1, 1})).ok());
  Result<FkIndex> index =
      FkIndex::Build(r.ColumnRef("fk"), s.ColumnRef("pk"));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(r.AddFkIndex("fk", std::move(index).value()).ok());
  Result<const FkIndex*> fetched = r.GetFkIndex("fk");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->OffsetAt(0), 2u);
  EXPECT_FALSE(r.GetFkIndex("nope").ok());
}

TEST(BitmapTest, SetTestClear) {
  PositionalBitmap bm(200);
  EXPECT_EQ(bm.num_bits(), 200);
  EXPECT_FALSE(bm.Test(63));
  bm.Set(63);
  bm.Set(64);
  bm.Set(199);
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(199));
  EXPECT_FALSE(bm.Test(65));
  EXPECT_EQ(bm.CountSetBits(), 3);
  bm.Clear(64);
  EXPECT_FALSE(bm.Test(64));
  EXPECT_EQ(bm.CountSetBits(), 2);
}

TEST(BitmapTest, SetToIsUnconditionalStore) {
  PositionalBitmap bm(10);
  bm.SetTo(5, true);
  EXPECT_TRUE(bm.Test(5));
  bm.SetTo(5, false);
  EXPECT_FALSE(bm.Test(5));
}

TEST(BitmapTest, PackBytesMatchesScalar) {
  Rng rng(11);
  constexpr int64_t kBits = 1000;
  std::vector<uint8_t> cmp(kBits);
  for (auto& b : cmp) b = rng.Bernoulli(0.3) ? 1 : 0;

  PositionalBitmap packed(kBits);
  // Pack in tile-sized chunks with a 64-aligned fast path + scalar tail.
  constexpr int64_t kTile = 256;
  for (int64_t start = 0; start < kBits; start += kTile) {
    int64_t len = std::min(kTile, kBits - start);
    packed.PackBytes(start, cmp.data() + start, len);
  }
  for (int64_t i = 0; i < kBits; ++i) {
    EXPECT_EQ(packed.Test(i), cmp[i] != 0) << "bit " << i;
  }
}

TEST(BitmapTest, AndOr) {
  PositionalBitmap a(128);
  PositionalBitmap b(128);
  a.Set(1);
  a.Set(100);
  b.Set(100);
  b.Set(101);
  PositionalBitmap a_and = a;
  // PositionalBitmap is copyable via default copy (vector member).
  a_and.And(b);
  EXPECT_EQ(a_and.CountSetBits(), 1);
  EXPECT_TRUE(a_and.Test(100));
  a.Or(b);
  EXPECT_EQ(a.CountSetBits(), 3);
}

}  // namespace
}  // namespace swole
