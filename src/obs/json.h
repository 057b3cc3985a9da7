#ifndef STATDB_OBS_JSON_H_
#define STATDB_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace statdb {
namespace obs {

/// Minimal ordered JSON object builder for metrics/trace export. It
/// escapes string values, so attribute names and error text are safe to
/// embed.
std::string JsonEscape(const std::string& s);

/// Objects nest either as Raw() JSON or with Open()/Close(). The second
/// form keeps every leaf addressable, so one stats walk renders two ways
/// (DESIGN.md §10): Build() is the JSON document, Flatten() the
/// dotted-path numbers of a timeseries point ("views.v.summary_db.hits";
/// booleans as 0/1, strings and Raw() fields left out).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    return Add(kNumber, key, os.str(), v);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Add(kNumber, key, std::to_string(v), double(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Add(kNumber, key, v ? "true" : "false", v ? 1 : 0);
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Add(kText, key, "\"" + JsonEscape(v) + "\"", 0);
  }
  /// `raw` is already-serialized JSON (a nested object or array).
  JsonObject& Raw(const std::string& key, const std::string& raw) {
    return Add(kText, key, raw, 0);
  }
  /// The fields up to the matching Close() land in object `key`.
  JsonObject& Open(const std::string& key) { return Add(kOpen, key, "", 0); }
  JsonObject& Close() { return Add(kClose, "", "", 0); }

  std::string Build() const;
  std::map<std::string, double> Flatten() const;

 private:
  enum Kind : uint8_t { kOpen, kClose, kNumber, kText };
  struct Field {
    Kind kind;
    std::string key;
    std::string json;
    double value;
  };
  JsonObject& Add(Kind kind, const std::string& key, std::string json,
                  double value) {
    fields_.push_back({kind, key, std::move(json), value});
    return *this;
  }
  std::vector<Field> fields_;
};

inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + items[i];
  }
  return out + "]";
}

}  // namespace obs
}  // namespace statdb

#endif  // STATDB_OBS_JSON_H_
