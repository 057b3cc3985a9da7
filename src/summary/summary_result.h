#ifndef STATDB_SUMMARY_SUMMARY_RESULT_H_
#define STATDB_SUMMARY_SUMMARY_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stats/crosstab.h"
#include "stats/histogram.h"
#include "stats/regression.h"

namespace statdb {

/// Kind of a cached function result. §3.2: "A Summary Database will
/// contain results of significantly different types... the values in the
/// third column will be of varying length."
enum class SummaryResultKind : uint8_t {
  kScalar = 0,     // mean, median, min, ... (one double)
  kVector = 1,     // quantile vectors, coefficient lists
  kHistogram = 2,  // two vectors: ranges + counts
  kModel = 3,      // linear-fit coefficients
  kCrossTab = 4,   // contingency table
  kText = 5,       // verbal descriptions of the data set
};

/// A variable-length function result stored in a Summary Database row.
class SummaryResult {
 public:
  SummaryResult() = default;

  static SummaryResult Scalar(double v);
  static SummaryResult Vector(std::vector<double> v);
  static SummaryResult Histo(Histogram h);
  static SummaryResult Model(LinearFit fit);
  static SummaryResult Contingency(CrossTab ct);
  static SummaryResult Text(std::string note);

  SummaryResultKind kind() const { return kind_; }

  /// Typed accessors; each errors unless the kind matches.
  Result<double> AsScalar() const;
  Result<const std::vector<double>*> AsVector() const;
  Result<const Histogram*> AsHistogram() const;
  Result<const LinearFit*> AsModel() const;
  Result<const CrossTab*> AsCrossTab() const;
  Result<const std::string*> AsText() const;

  /// Varying-length binary encoding (the Summary Database's RESULT
  /// column) and its inverse.
  std::vector<uint8_t> Serialize() const;
  static Result<SummaryResult> Deserialize(const std::vector<uint8_t>& bytes);

  std::string ToString() const;

  friend bool operator==(const SummaryResult& a, const SummaryResult& b);

 private:
  /// Deserialize's parse, before its failures are all made DATA_LOSS.
  static Result<SummaryResult> Decode(const std::vector<uint8_t>& bytes);

  SummaryResultKind kind_ = SummaryResultKind::kScalar;
  double scalar_ = 0;
  std::vector<double> vector_;
  Histogram histogram_;
  LinearFit model_;
  CrossTab crosstab_;
  std::string text_;
};

}  // namespace statdb

#endif  // STATDB_SUMMARY_SUMMARY_RESULT_H_
