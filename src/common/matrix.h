// Dense row-major matrix of doubles. The numeric workhorse for datasets,
// distance computation, and the linear algebra used by PCA/t-SNE. Kept
// deliberately small: rows are contiguous so distance kernels can work on
// raw pointers.
#ifndef GBX_COMMON_MATRIX_H_
#define GBX_COMMON_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"

namespace gbx {

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, fill) {
    GBX_CHECK_GE(rows, 0);
    GBX_CHECK_GE(cols, 0);
  }

  /// Builds a matrix from nested braces: Matrix::FromRows({{1,2},{3,4}}).
  static Matrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& At(int r, int c) {
    GBX_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  double At(int r, int c) const {
    GBX_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }

  /// Pointer to the contiguous row r (cols() doubles).
  double* Row(int r) {
    GBX_DCHECK(r >= 0 && r < rows_);
    return data_.data() + static_cast<std::size_t>(r) * cols_;
  }
  const double* Row(int r) const {
    GBX_DCHECK(r >= 0 && r < rows_);
    return data_.data() + static_cast<std::size_t>(r) * cols_;
  }

  /// New matrix containing the given rows, in order.
  Matrix SelectRows(const std::vector<int>& indices) const;

  /// Appends all rows of `other` (must have matching cols, or this empty).
  void AppendRows(const Matrix& other);

  /// Appends one row given as a span of cols() doubles.
  void AppendRow(const double* row, int n);

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

namespace internal {
/// SoaMatrix storage. Blocks of 128 KiB and up are mapped from and
/// unmapped back to the OS directly instead of going through malloc:
/// glibc maps such blocks too, but freeing one raises its dynamic mmap
/// threshold, after which blocks up to that size come from the heap and
/// stay resident once freed. RD-GBG maps an n×p mirror of U per call,
/// and GB-kNN its ball centers. Smaller blocks use operator new.
void* AllocateSoaStorage(std::size_t bytes);
void FreeSoaStorage(void* p, std::size_t bytes);

template <class T>
struct SoaAllocator {
  using value_type = T;
  SoaAllocator() = default;
  template <class U>
  SoaAllocator(const SoaAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(AllocateSoaStorage(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { FreeSoaStorage(p, n * sizeof(T)); }
  template <class U>
  bool operator==(const SoaAllocator<U>&) const {
    return true;
  }
};
}  // namespace internal

/// Lane width of the SoA blocked layout below. Fixed at 8 on every
/// architecture — the layout is part of the numeric contract (a model
/// packed on an AVX-512 host must stream identically through the NEON
/// and scalar kernels), so it never tracks the native vector width.
/// 8 doubles is one AVX-512 register, two AVX2 registers, four NEON
/// registers, and a 64-byte cache line either way.
inline constexpr int kSoaBlock = 8;

/// Structure-of-arrays blocked matrix: rows are grouped into blocks of
/// kSoaBlock, and within a block the storage is column-major — element
/// (r, c) lives at data()[((r/8)*cols + c)*8 + r%8]. A batched distance
/// kernel walking dimension c therefore loads 8 rows' c-th coordinates
/// as one contiguous vector, which is what lets src/simd/ vectorize
/// *across rows* while keeping each row's accumulation order identical
/// to the scalar SquaredDistance loop (the bit-exactness contract).
/// The final partial block is zero-padded; kernels never read padding
/// (partial blocks take the per-lane scalar path).
class SoaMatrix {
 public:
  SoaMatrix() = default;
  explicit SoaMatrix(int cols) : cols_(cols) { GBX_CHECK_GE(cols, 0); }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  void Reserve(int rows) {
    GBX_CHECK_GE(rows, 0);
    data_.reserve(BlocksFor(rows) * static_cast<std::size_t>(cols_) *
                  kSoaBlock);
  }

  /// Appends one row given as cols() contiguous doubles.
  void AppendRow(const double* row);

  /// Moves the last row into row `r` and drops the last row: O(cols)
  /// removal that keeps the rows compact (row order is not preserved).
  /// The vacated lane is zeroed, so the padding invariant holds.
  void SwapRemoveRow(int r);

  static SoaMatrix FromMatrix(const Matrix& m);

  /// Strided single-element read (tests / cold paths).
  double At(int r, int c) const {
    GBX_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[BlockOffset(r, c)];
  }

  const double* data() const { return data_.data(); }

 private:
  static std::size_t BlocksFor(int rows) {
    return (static_cast<std::size_t>(rows) + kSoaBlock - 1) / kSoaBlock;
  }
  std::size_t BlockOffset(int r, int c) const {
    return (static_cast<std::size_t>(r / kSoaBlock) * cols_ + c) * kSoaBlock +
           r % kSoaBlock;
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<double, internal::SoaAllocator<double>> data_;
};

/// Squared Euclidean distance between two length-d vectors. Defined
/// inline so the per-element loop can vectorize at every call site
/// instead of paying a cross-TU call per pair; distance-heavy hot loops
/// (granulation, k-means, DPC) compare squared values and defer the
/// sqrt to the moment an actual radius is needed.
inline double SquaredDistance(const double* a, const double* b, int d) {
  double s = 0.0;
  for (int i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

/// Euclidean distance between two length-d vectors.
inline double EuclideanDistance(const double* a, const double* b, int d) {
  return std::sqrt(SquaredDistance(a, b, d));
}

}  // namespace gbx

#endif  // GBX_COMMON_MATRIX_H_
