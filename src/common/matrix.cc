#include "common/matrix.h"

#include <sys/mman.h>

#include <new>

namespace gbx {

namespace internal {

namespace {
// glibc's initial mmap threshold, the floor of its dynamic one: no block
// this large or larger reaches malloc, so none can raise the threshold.
constexpr std::size_t kDirectMapBytes = std::size_t{1} << 17;
}  // namespace

void* AllocateSoaStorage(std::size_t bytes) {
  if (bytes < kDirectMapBytes) return ::operator new(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void FreeSoaStorage(void* p, std::size_t bytes) {
  if (bytes < kDirectMapBytes) {
    ::operator delete(p);
  } else {
    ::munmap(p, bytes);
  }
}

}  // namespace internal

Matrix Matrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m;
  for (const auto& row : rows) {
    std::vector<double> tmp(row);
    m.AppendRow(tmp.data(), static_cast<int>(tmp.size()));
  }
  return m;
}

Matrix Matrix::SelectRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (int i = 0; i < out.rows(); ++i) {
    const int src = indices[i];
    GBX_CHECK(src >= 0 && src < rows_);
    const double* s = Row(src);
    double* d = out.Row(i);
    for (int c = 0; c < cols_; ++c) d[c] = s[c];
  }
  return out;
}

void Matrix::AppendRows(const Matrix& other) {
  if (other.rows() == 0) return;
  if (rows_ == 0 && cols_ == 0) {
    cols_ = other.cols();
  }
  GBX_CHECK_EQ(cols_, other.cols());
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows();
}

void Matrix::AppendRow(const double* row, int n) {
  if (rows_ == 0 && cols_ == 0) cols_ = n;
  GBX_CHECK_EQ(cols_, n);
  data_.insert(data_.end(), row, row + n);
  ++rows_;
}

void SoaMatrix::AppendRow(const double* row) {
  if (rows_ % kSoaBlock == 0) {
    // Open a fresh zero-padded block.
    data_.resize(data_.size() + static_cast<std::size_t>(cols_) * kSoaBlock,
                 0.0);
  }
  const int lane = rows_ % kSoaBlock;
  double* block = data_.data() + static_cast<std::size_t>(rows_ / kSoaBlock) *
                                     cols_ * kSoaBlock;
  for (int c = 0; c < cols_; ++c) {
    block[static_cast<std::size_t>(c) * kSoaBlock + lane] = row[c];
  }
  ++rows_;
}

void SoaMatrix::SwapRemoveRow(int r) {
  GBX_DCHECK(r >= 0 && r < rows_);
  const int last = rows_ - 1;
  for (int c = 0; c < cols_; ++c) {
    data_[BlockOffset(r, c)] = data_[BlockOffset(last, c)];
    data_[BlockOffset(last, c)] = 0.0;
  }
  rows_ = last;
  // Drop the trailing block once it is empty, so the next AppendRow
  // opens a fresh one exactly where the layout expects it.
  data_.resize(BlocksFor(rows_) * static_cast<std::size_t>(cols_) * kSoaBlock);
}

SoaMatrix SoaMatrix::FromMatrix(const Matrix& m) {
  SoaMatrix out(m.cols());
  out.Reserve(m.rows());
  for (int r = 0; r < m.rows(); ++r) out.AppendRow(m.Row(r));
  return out;
}

}  // namespace gbx
