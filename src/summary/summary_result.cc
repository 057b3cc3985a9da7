#include "summary/summary_result.h"

#include <cstring>
#include <sstream>

#include "common/bytes.h"
#include "relational/table.h"

namespace statdb {

namespace {

/// The edges are EqualWidthEdges of their ends, bit for bit, so those
/// two doubles encode them.
bool IsEqualWidth(const Histogram& h) {
  if (h.counts.empty() || h.edges.size() != h.counts.size() + 1) {
    return false;
  }
  const std::vector<double> rebuilt =
      EqualWidthEdges(h.edges.front(), h.edges.back(), h.counts.size());
  return std::memcmp(rebuilt.data(), h.edges.data(),
                     rebuilt.size() * sizeof(double)) == 0;
}

}  // namespace

SummaryResult SummaryResult::Scalar(double v) {
  SummaryResult r;
  r.kind_ = SummaryResultKind::kScalar;
  r.scalar_ = v;
  return r;
}

SummaryResult SummaryResult::Vector(std::vector<double> v) {
  SummaryResult r;
  r.kind_ = SummaryResultKind::kVector;
  r.vector_ = std::move(v);
  return r;
}

SummaryResult SummaryResult::Histo(Histogram h) {
  SummaryResult r;
  r.kind_ = SummaryResultKind::kHistogram;
  r.histogram_ = std::move(h);
  return r;
}

SummaryResult SummaryResult::Model(LinearFit fit) {
  SummaryResult r;
  r.kind_ = SummaryResultKind::kModel;
  r.model_ = fit;
  return r;
}

SummaryResult SummaryResult::Contingency(CrossTab ct) {
  SummaryResult r;
  r.kind_ = SummaryResultKind::kCrossTab;
  r.crosstab_ = std::move(ct);
  return r;
}

SummaryResult SummaryResult::Text(std::string note) {
  SummaryResult r;
  r.kind_ = SummaryResultKind::kText;
  r.text_ = std::move(note);
  return r;
}

Result<double> SummaryResult::AsScalar() const {
  if (kind_ != SummaryResultKind::kScalar) {
    return FailedPreconditionError("summary result is not a scalar");
  }
  return scalar_;
}

Result<const std::vector<double>*> SummaryResult::AsVector() const {
  if (kind_ != SummaryResultKind::kVector) {
    return FailedPreconditionError("summary result is not a vector");
  }
  return &vector_;
}

Result<const Histogram*> SummaryResult::AsHistogram() const {
  if (kind_ != SummaryResultKind::kHistogram) {
    return FailedPreconditionError("summary result is not a histogram");
  }
  return &histogram_;
}

Result<const LinearFit*> SummaryResult::AsModel() const {
  if (kind_ != SummaryResultKind::kModel) {
    return FailedPreconditionError("summary result is not a model");
  }
  return &model_;
}

Result<const CrossTab*> SummaryResult::AsCrossTab() const {
  if (kind_ != SummaryResultKind::kCrossTab) {
    return FailedPreconditionError("summary result is not a cross-tab");
  }
  return &crosstab_;
}

Result<const std::string*> SummaryResult::AsText() const {
  if (kind_ != SummaryResultKind::kText) {
    return FailedPreconditionError("summary result is not text");
  }
  return &text_;
}

std::vector<uint8_t> SummaryResult::Serialize() const {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case SummaryResultKind::kScalar:
      w.PutDouble(scalar_);
      break;
    case SummaryResultKind::kVector:
      w.PutU32(static_cast<uint32_t>(vector_.size()));
      for (double d : vector_) w.PutDouble(d);
      break;
    case SummaryResultKind::kHistogram: {
      // Equal-width edges are their two ends, and counts are varints: a
      // 2,000-bucket histogram of 200k values takes about 2 KB.
      const Histogram& h = histogram_;
      const bool equal_width = IsEqualWidth(h);
      w.PutU8(equal_width ? 1 : 0);
      if (equal_width) {
        w.PutU32(static_cast<uint32_t>(h.counts.size()));
        w.PutDouble(h.edges.front());
        w.PutDouble(h.edges.back());
      } else {
        w.PutU32(static_cast<uint32_t>(h.edges.size()));
        for (double d : h.edges) w.PutDouble(d);
        w.PutU32(static_cast<uint32_t>(h.counts.size()));
      }
      for (uint64_t c : h.counts) w.PutVarint(c);
      w.PutVarint(h.below);
      w.PutVarint(h.above);
      break;
    }
    case SummaryResultKind::kModel:
      w.PutDouble(model_.slope);
      w.PutDouble(model_.intercept);
      w.PutDouble(model_.r_squared);
      w.PutDouble(model_.residual_stddev);
      w.PutU64(model_.n);
      break;
    case SummaryResultKind::kCrossTab: {
      std::vector<uint8_t> rows = SerializeRow(crosstab_.row_labels);
      std::vector<uint8_t> cols = SerializeRow(crosstab_.col_labels);
      w.PutU32(static_cast<uint32_t>(rows.size()));
      w.PutRaw(rows.data(), rows.size());
      w.PutU32(static_cast<uint32_t>(cols.size()));
      w.PutRaw(cols.data(), cols.size());
      for (const auto& row : crosstab_.counts) {
        for (uint64_t c : row) w.PutU64(c);
      }
      break;
    }
    case SummaryResultKind::kText:
      w.PutString(text_);
      break;
  }
  return w.Take();
}

Result<SummaryResult> SummaryResult::Deserialize(
    const std::vector<uint8_t>& bytes) {
  return AsDataLoss(Decode(bytes));
}

Result<SummaryResult> SummaryResult::Decode(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  STATDB_ASSIGN_OR_RETURN(uint8_t kind_raw, r.GetU8());
  SummaryResult out;
  out.kind_ = static_cast<SummaryResultKind>(kind_raw);
  switch (out.kind_) {
    case SummaryResultKind::kScalar: {
      STATDB_ASSIGN_OR_RETURN(out.scalar_, r.GetDouble());
      break;
    }
    case SummaryResultKind::kVector: {
      STATDB_ASSIGN_OR_RETURN(uint32_t n, r.GetCount(sizeof(double)));
      out.vector_.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        STATDB_ASSIGN_OR_RETURN(double d, r.GetDouble());
        out.vector_.push_back(d);
      }
      break;
    }
    case SummaryResultKind::kHistogram: {
      Histogram& h = out.histogram_;
      STATDB_ASSIGN_OR_RETURN(uint8_t equal_width, r.GetU8());
      uint32_t nc = 0;
      if (equal_width == 1) {
        // Each count is at least a one-byte varint.
        STATDB_ASSIGN_OR_RETURN(nc, r.GetCount(1));
        if (nc == 0) return DataLossError("equal-width histogram of no bucket");
        STATDB_ASSIGN_OR_RETURN(double lo, r.GetDouble());
        STATDB_ASSIGN_OR_RETURN(double hi, r.GetDouble());
        h.edges = EqualWidthEdges(lo, hi, nc);
      } else if (equal_width == 0) {
        STATDB_ASSIGN_OR_RETURN(uint32_t ne, r.GetCount(sizeof(double)));
        h.edges.reserve(ne);
        for (uint32_t i = 0; i < ne; ++i) {
          STATDB_ASSIGN_OR_RETURN(double d, r.GetDouble());
          h.edges.push_back(d);
        }
        STATDB_ASSIGN_OR_RETURN(nc, r.GetCount(1));
      } else {
        return DataLossError("bad histogram edge form");
      }
      h.counts.reserve(nc);
      for (uint32_t i = 0; i < nc; ++i) {
        STATDB_ASSIGN_OR_RETURN(uint64_t c, r.GetVarint());
        h.counts.push_back(c);
      }
      STATDB_ASSIGN_OR_RETURN(h.below, r.GetVarint());
      STATDB_ASSIGN_OR_RETURN(h.above, r.GetVarint());
      break;
    }
    case SummaryResultKind::kModel: {
      STATDB_ASSIGN_OR_RETURN(out.model_.slope, r.GetDouble());
      STATDB_ASSIGN_OR_RETURN(out.model_.intercept, r.GetDouble());
      STATDB_ASSIGN_OR_RETURN(out.model_.r_squared, r.GetDouble());
      STATDB_ASSIGN_OR_RETURN(out.model_.residual_stddev, r.GetDouble());
      STATDB_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
      out.model_.n = n;
      break;
    }
    case SummaryResultKind::kCrossTab: {
      STATDB_ASSIGN_OR_RETURN(uint32_t rlen, r.GetCount(1));
      std::vector<uint8_t> rbytes;
      rbytes.reserve(rlen);
      for (uint32_t i = 0; i < rlen; ++i) {
        STATDB_ASSIGN_OR_RETURN(uint8_t b, r.GetU8());
        rbytes.push_back(b);
      }
      STATDB_ASSIGN_OR_RETURN(out.crosstab_.row_labels,
                              DeserializeRow(rbytes.data(), rbytes.size()));
      STATDB_ASSIGN_OR_RETURN(uint32_t clen, r.GetCount(1));
      std::vector<uint8_t> cbytes;
      cbytes.reserve(clen);
      for (uint32_t i = 0; i < clen; ++i) {
        STATDB_ASSIGN_OR_RETURN(uint8_t b, r.GetU8());
        cbytes.push_back(b);
      }
      STATDB_ASSIGN_OR_RETURN(out.crosstab_.col_labels,
                              DeserializeRow(cbytes.data(), cbytes.size()));
      size_t nrows = out.crosstab_.row_labels.size();
      size_t ncols = out.crosstab_.col_labels.size();
      if (nrows * ncols > r.remaining() / sizeof(uint64_t)) {
        return DataLossError("crosstab counts exceed the bytes that follow");
      }
      out.crosstab_.counts.assign(nrows, std::vector<uint64_t>(ncols, 0));
      for (size_t i = 0; i < nrows; ++i) {
        for (size_t j = 0; j < ncols; ++j) {
          STATDB_ASSIGN_OR_RETURN(out.crosstab_.counts[i][j], r.GetU64());
        }
      }
      break;
    }
    case SummaryResultKind::kText: {
      STATDB_ASSIGN_OR_RETURN(out.text_, r.GetString());
      break;
    }
    default:
      return DataLossError("bad summary result kind");
  }
  return out;
}

std::string SummaryResult::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case SummaryResultKind::kScalar:
      os << scalar_;
      break;
    case SummaryResultKind::kVector: {
      os << "[";
      for (size_t i = 0; i < vector_.size(); ++i) {
        if (i > 0) os << ", ";
        os << vector_[i];
      }
      os << "]";
      break;
    }
    case SummaryResultKind::kHistogram:
      os << "histogram(" << histogram_.buckets() << " buckets, "
         << histogram_.TotalCount() << " values)";
      break;
    case SummaryResultKind::kModel:
      os << "y = " << model_.intercept << " + " << model_.slope
         << "x (R^2 = " << model_.r_squared << ")";
      break;
    case SummaryResultKind::kCrossTab:
      os << crosstab_.row_labels.size() << "x" << crosstab_.col_labels.size()
         << " cross-tab";
      break;
    case SummaryResultKind::kText:
      os << text_;
      break;
  }
  return os.str();
}

bool operator==(const SummaryResult& a, const SummaryResult& b) {
  // Structural equality via the canonical encoding.
  return a.Serialize() == b.Serialize();
}

}  // namespace statdb
