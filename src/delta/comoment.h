#ifndef STATDB_DELTA_COMOMENT_H_
#define STATDB_DELTA_COMOMENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "delta/delta_buffer.h"
#include "stats/partial_stats.h"
#include "summary/summary_result.h"

namespace statdb::delta {

/// The bivariate functions that finish from co-moment partial states:
/// "correlation", "covariance" and "regression".
bool IsComomentFunction(const std::string& function);

/// Finishes a co-moment function from merged (or maintained) state with
/// ComomentStats' own finishers and their exact domain errors. INTERNAL
/// for any other function.
Result<SummaryResult> FinishComoments(const std::string& function,
                                      const ComomentStats& cs);

/// Incremental maintainer for the bivariate summary entries
/// ("correlation", "covariance", "regression") backed by ComomentStats —
/// the pair scan's own state, seeded from it. Insertions ride
/// ComomentStats::Add and removals its exact inverse ComomentStats::Remove,
/// so a maintained entry tracks the recomputed value to rounding (the
/// same contract the moment maintainers give variance).
///
/// The co-moment needs both coordinates of the touched row. Deltas carry
/// only the maintained attribute's endpoints, so the flush engine reads
/// the co-attribute's *live* cell — which equals its value at both delta
/// endpoints exactly when the co-attribute has no pending deltas of its
/// own (data writes are immediate; only summary maintenance defers).
/// FlushAttribute enforces that precondition and falls back to MarkStale
/// when it fails.
class ComomentMaintainer {
 public:
  ComomentMaintainer(std::string function, std::string attr_x,
                     std::string attr_y, ComomentStats seed)
      : function_(std::move(function)),
        attr_x_(std::move(attr_x)),
        attr_y_(std::move(attr_y)),
        cs_(seed) {}

  const std::string& function() const { return function_; }
  const std::string& attr_x() const { return attr_x_; }
  const std::string& attr_y() const { return attr_y_; }

  bool Touches(const std::string& attr) const {
    return attr == attr_x_ || attr == attr_y_;
  }
  /// The other attribute of the pair; `attr` must satisfy Touches().
  const std::string& CoAttribute(const std::string& attr) const {
    return attr == attr_x_ ? attr_y_ : attr_x_;
  }

  /// Folds one delta on `attr` given the co-attribute's value for the
  /// row. FAILED_PRECONDITION when the state cannot answer (removal
  /// from an empty state): the entry must be recomputed.
  Status Apply(const std::string& attr, const RowDelta& d, double co_value);

  /// Renders the entry's cached form for this maintainer's function.
  Result<SummaryResult> Render() const {
    return FinishComoments(function_, cs_);
  }

  const ComomentStats& state() const { return cs_; }
  uint64_t applies() const { return applies_; }

 private:
  std::string function_;
  std::string attr_x_;
  std::string attr_y_;
  ComomentStats cs_;
  uint64_t applies_ = 0;
};

}  // namespace statdb::delta

#endif  // STATDB_DELTA_COMOMENT_H_
