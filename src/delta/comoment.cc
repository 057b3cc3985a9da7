#include "delta/comoment.h"

namespace statdb::delta {

bool IsComomentFunction(const std::string& function) {
  return function == "correlation" || function == "covariance" ||
         function == "regression";
}

Result<SummaryResult> FinishComoments(const std::string& function,
                                      const ComomentStats& cs) {
  if (function == "correlation") {
    STATDB_ASSIGN_OR_RETURN(double r, cs.PearsonR());
    return SummaryResult::Scalar(r);
  }
  if (function == "covariance") {
    STATDB_ASSIGN_OR_RETURN(double c, cs.Covariance());
    return SummaryResult::Scalar(c);
  }
  if (function == "regression") {
    STATDB_ASSIGN_OR_RETURN(LinearFit fit, cs.Fit());
    return SummaryResult::Model(fit);
  }
  return InternalError("co-moment finish for non-co-moment function " +
                       function);
}

Status ComomentMaintainer::Apply(const std::string& attr, const RowDelta& d,
                                 double co_value) {
  // A pair participates in the co-moment only when both cells are
  // present; a missing maintained cell means the row was absent from
  // the bivariate sample at that endpoint.
  if (d.old_value.has_value()) {
    double x = attr == attr_x_ ? *d.old_value : co_value;
    double y = attr == attr_x_ ? co_value : *d.old_value;
    if (!cs_.Remove(x, y)) {
      return FailedPreconditionError(
          "comoment: removal from an empty state, recompute required");
    }
  }
  if (d.new_value.has_value()) {
    double x = attr == attr_x_ ? *d.new_value : co_value;
    double y = attr == attr_x_ ? co_value : *d.new_value;
    cs_.Add(x, y);
  }
  ++applies_;
  return Status::OK();
}

}  // namespace statdb::delta
