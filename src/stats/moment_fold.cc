#include "stats/moment_fold.h"

#include <algorithm>

#include "simd/kernels.h"

namespace statdb {

namespace {

// Each block merges into the running state on its own: Merge is not
// associative in floating point, so merging a run of blocks folded apart
// would not give the one-call bits.

void FoldBlocks(const double* data, size_t n, DescriptiveStats* s) {
  for (size_t i = 0; i < n; i += kFoldBlock) {
    s->Merge(simd::DescribeSpan(data + i, std::min(kFoldBlock, n - i)));
  }
}

void FoldBlocks(const double* xs, const double* ys, size_t n,
                ComomentStats* s) {
  for (size_t i = 0; i < n; i += kFoldBlock) {
    s->Merge(
        simd::ComomentSpan(xs + i, ys + i, std::min(kFoldBlock, n - i)));
  }
}

}  // namespace

DescriptiveStats FoldMoments(const double* data, size_t n) {
  DescriptiveStats s;
  FoldBlocks(data, n, &s);
  return s;
}

ComomentStats FoldComoments(const double* xs, const double* ys, size_t n) {
  ComomentStats s;
  FoldBlocks(xs, ys, n, &s);
  return s;
}

void MomentFold::Add(const double* data, size_t n) {
  if (!pending_.empty()) {
    const size_t take = std::min(n, kFoldBlock - pending_.size());
    pending_.insert(pending_.end(), data, data + take);
    data += take;
    n -= take;
    if (pending_.size() < kFoldBlock) return;
    FoldBlocks(pending_.data(), kFoldBlock, &done_);
    pending_.clear();
  }
  const size_t whole = n - n % kFoldBlock;
  FoldBlocks(data, whole, &done_);
  if (whole == n) return;
  pending_.reserve(kFoldBlock);
  pending_.assign(data + whole, data + n);
}

DescriptiveStats MomentFold::Finish() const {
  DescriptiveStats s = done_;
  FoldBlocks(pending_.data(), pending_.size(), &s);
  return s;
}

void ComomentFold::Add(const double* xs, const double* ys, size_t n) {
  if (!pending_x_.empty()) {
    const size_t take = std::min(n, kFoldBlock - pending_x_.size());
    pending_x_.insert(pending_x_.end(), xs, xs + take);
    pending_y_.insert(pending_y_.end(), ys, ys + take);
    xs += take;
    ys += take;
    n -= take;
    if (pending_x_.size() < kFoldBlock) return;
    FoldBlocks(pending_x_.data(), pending_y_.data(), kFoldBlock, &done_);
    pending_x_.clear();
    pending_y_.clear();
  }
  const size_t whole = n - n % kFoldBlock;
  FoldBlocks(xs, ys, whole, &done_);
  if (whole == n) return;
  pending_x_.reserve(kFoldBlock);
  pending_y_.reserve(kFoldBlock);
  pending_x_.assign(xs + whole, xs + n);
  pending_y_.assign(ys + whole, ys + n);
}

ComomentStats ComomentFold::Finish() const {
  ComomentStats s = done_;
  FoldBlocks(pending_x_.data(), pending_y_.data(), pending_x_.size(), &s);
  return s;
}

}  // namespace statdb
