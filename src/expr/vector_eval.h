#ifndef SWOLE_EXPR_VECTOR_EVAL_H_
#define SWOLE_EXPR_VECTOR_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "exec/kernels.h"
#include "exec/simd_string.h"
#include "expr/expr.h"

// Tile-at-a-time expression evaluation over a table's columns. This is the
// "prepass" machinery (Fig. 1): boolean expressions evaluate into 0/1 byte
// arrays with branch-free typed loops (SIMD-friendly), numeric expressions
// into int64 arrays. The hybrid, ROF, and SWOLE engines are built on top of
// this; fused special-case kernels in exec/kernels.h take over on the hot
// aggregate shapes.

namespace swole {

class Table;

/// The kernel comparison for a comparison BinaryOp; CHECK-fails on any
/// other op.
kernels::CmpOp ToCmpOp(BinaryOp op);

class VectorEvaluator {
 public:
  /// `table` must outlive the evaluator. Tiles must not exceed `tile_size`.
  explicit VectorEvaluator(const Table& table,
                           int64_t tile_size = 1024);

  /// Boolean expression over rows [start, start+len) into cmp (bytes 0/1).
  /// Preconditions: expr.IsBoolean(), len <= tile_size.
  void EvalBool(const Expr& expr, int64_t start, int64_t len, uint8_t* cmp);

  /// Numeric expression over rows [start, start+len) into out (int64).
  /// Boolean subexpressions contribute 0/1 values (used for masking).
  void EvalNumeric(const Expr& expr, int64_t start, int64_t len,
                   int64_t* out);

  const Table& table() const { return table_; }
  int64_t tile_size() const { return tile_size_; }

  /// The 0/1 dictionary mask for a LIKE expression (built once, cached).
  const std::vector<uint8_t>& LikeMaskFor(const Expr& like);

  /// The compiled pattern for a raw-text LIKE expression (cached per node).
  const simd::CompiledLike& CompiledLikeFor(const Expr& like);

  /// Column overrides for compacted evaluation: while set, every column
  /// reference named in the list reads from the given widened int64 buffer
  /// (indexed from `start`, normally 0) instead of the table. Used after a
  /// gather so expressions evaluate only over selected lanes. Every column
  /// the expression references must be overridden. Pass nullptr to clear.
  using Overrides = std::vector<std::pair<std::string, const int64_t*>>;
  void SetOverrides(const Overrides* overrides) { overrides_ = overrides; }

 private:
  // Scratch buffer pool: recursion depth d uses buffers_[d].
  int64_t* NumScratch(int depth);
  uint8_t* BoolScratch(int depth);

  /// Override buffer for `name`, or nullptr.
  const int64_t* FindOverride(const std::string& name) const;

  const Table& table_;
  int64_t tile_size_;
  const Overrides* overrides_ = nullptr;
  std::vector<std::unique_ptr<int64_t[]>> num_scratch_;
  std::vector<std::unique_ptr<uint8_t[]>> bool_scratch_;
  std::map<const Expr*, std::vector<uint8_t>> like_masks_;
  std::map<const Expr*, simd::CompiledLike> compiled_likes_;
};

}  // namespace swole

#endif  // SWOLE_EXPR_VECTOR_EVAL_H_
