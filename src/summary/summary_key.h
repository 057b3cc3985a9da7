#ifndef STATDB_SUMMARY_SUMMARY_KEY_H_
#define STATDB_SUMMARY_SUMMARY_KEY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace statdb {

/// The function name of an analyst's annotation entry (a text note on an
/// attribute): no function computes it and no rule maintains it.
inline constexpr std::string_view kNoteFunction = "note";

/// Search argument of the Summary Database: "a function name-attribute
/// name(s) pair" (§3.2), extended with a canonical parameter string so
/// e.g. quantile(p=0.05) and quantile(p=0.95) cache separately.
struct SummaryKey {
  std::string function;                 // "median", "mean", "histogram"
  std::vector<std::string> attributes;  // 1+ attribute names
  std::string params;                   // canonical, e.g. "p=0.05"

  static SummaryKey Of(std::string function, std::string attribute,
                       std::string params = "") {
    return SummaryKey{std::move(function), {std::move(attribute)},
                      std::move(params)};
  }

  /// Clustered storage encoding: the *first* attribute leads so a prefix
  /// scan on an attribute enumerates all its cached results ("data will
  /// most likely be clustered on attribute name", §3.2). Fields are
  /// separated by '|' and attribute lists by ','; those characters are
  /// disallowed in names.
  std::string Encode() const;
  static Result<SummaryKey> Decode(const std::string& encoded);

  /// Prefix every entry for `attribute` starts with.
  static std::string AttributePrefix(const std::string& attribute);

  std::string ToString() const;

  friend bool operator==(const SummaryKey&, const SummaryKey&) = default;
};

}  // namespace statdb

#endif  // STATDB_SUMMARY_SUMMARY_KEY_H_
