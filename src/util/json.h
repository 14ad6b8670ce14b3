#ifndef SRP_UTIL_JSON_H_
#define SRP_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace srp {

/// Appends `s` to `*out` with JSON string escaping: `"` and `\`
/// backslashed, `\n` `\r` `\t` as such, other control bytes as `\u00XX`,
/// every other byte as is. The one escaper of the JSON documents, logs and
/// traces this project writes (the crash handler's signal-safe formatter
/// aside).
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Minimal JSON document model backing the run-report / benchmark artifacts
/// (DESIGN.md §9). Two properties matter more than generality:
///
///  * Objects preserve INSERTION order. The report writers emit keys in a
///    fixed order, so two reports built the same way serialize to
///    byte-identical documents (modulo the numeric values themselves) — the
///    stable-key-order contract the round-trip tests rely on. `Set` on an
///    existing key overwrites in place, keeping the original position.
///  * Parse(Dump(v)) == v. Numbers that hold integral values within the
///    exact-double range serialize without a decimal point; everything else
///    uses round-trip (%.17g) precision.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}  // NOLINT
  JsonValue(int value)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(int64_t value)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(uint64_t value)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(std::string value)  // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}  // NOLINT

  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; the default is returned on kind mismatch so report
  /// readers degrade gracefully on schema drift.
  bool bool_value(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double number_value(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& string_value() const { return string_; }

  // --- array interface -----------------------------------------------------
  size_t size() const {
    return is_array() ? items_.size() : (is_object() ? members_.size() : 0);
  }
  /// Appends to an array (converts a null value into an array first).
  JsonValue& Append(JsonValue value);
  const JsonValue& at(size_t index) const { return items_[index]; }
  const std::vector<JsonValue>& items() const { return items_; }

  // --- object interface ----------------------------------------------------
  /// Inserts or overwrites `key` (converts a null value into an object
  /// first). Insertion order is preserved; an overwrite keeps the slot.
  JsonValue& Set(std::string_view key, JsonValue value);
  /// Pointer to the member or nullptr. Object-kind values only.
  const JsonValue* Find(std::string_view key) const;
  /// Find() that descends a '.'-separated path, e.g. "provenance.git_sha".
  const JsonValue* FindPath(std::string_view dotted_path) const;
  const std::vector<Member>& members() const { return members_; }

  /// Serializes the value. `indent` < 0 → compact one-line output;
  /// `indent` >= 0 → pretty-printed with that many spaces per level.
  std::string Dump(int indent = -1) const;

  /// Strict parser: the whole input must be one JSON value (surrounding
  /// whitespace allowed). Fails with InvalidArgument naming the byte offset.
  static Result<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const;
  bool operator!=(const JsonValue& other) const { return !(*this == other); }

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace srp

#endif  // SRP_UTIL_JSON_H_
