// Minimal hand-rolled JSON value tree with a writer and a strict
// recursive-descent parser. Shared by the bench harness (reports), the
// scenario engine (spec files) and the campaign runner (aggregated
// reports) — one dependency-free dialect for every machine-readable
// artifact in the repository.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace evm::util {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}            // NOLINT(runtime/explicit)
  Json(double n) : kind_(Kind::kNumber), number_(n) {}      // NOLINT(runtime/explicit)
  Json(int n) : Json(static_cast<double>(n)) {}             // NOLINT(runtime/explicit)
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}    // NOLINT(runtime/explicit)
  Json(std::size_t n) : Json(static_cast<double>(n)) {}     // NOLINT(runtime/explicit)
  Json(const char* s) : kind_(Kind::kString), string_(s) {} // NOLINT(runtime/explicit)
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Json object() { Json j; j.kind_ = Kind::kObject; return j; }
  static Json array() { Json j; j.kind_ = Kind::kArray; return j; }

  /// Object member set; insertion order is preserved, duplicate keys replace.
  Json& set(const std::string& key, Json value);
  /// Array append.
  Json& push(Json value);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool empty() const { return members_.empty() && elements_.empty(); }
  /// Member count for objects, element count for arrays, 0 otherwise.
  std::size_t size() const;

  // --- Readers (type-tolerant: wrong kind returns the fallback) -------------
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0.0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  const std::string& as_string() const { return string_; }
  std::string as_string(const std::string& fallback) const;

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;
  /// Array element (kNull sentinel when out of range or not an array).
  const Json& at(std::size_t i) const;

  const std::vector<std::pair<std::string, Json>>& members() const { return members_; }
  const std::vector<Json>& elements() const { return elements_; }

  /// Serialize with two-space indentation. NaN/Inf become null.
  std::string dump(int indent = 0) const;

  /// Serialize on a single line with no whitespace: the JSONL form used by
  /// trace exports, where one document per line is the whole point.
  std::string dump_compact() const;

  /// Escape `s` as a quoted JSON string literal (the exact writer dump()
  /// uses). This is the one escaping path for every exporter that emits
  /// strings outside a full Json tree — e.g. sim::Trace::to_csv quoting a
  /// hostile series name — so quotes and control characters can never
  /// corrupt an artifact.
  static std::string escape(const std::string& s);

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error). Errors carry a byte offset and a short description.
  static Result<Json> parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent) const;
  void dump_compact_to(std::string& out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> elements_;
};

/// Read a whole file and parse it. Missing/unreadable files report kNotFound.
Result<Json> load_json_file(const std::string& path);

/// Reject any key of `obj` outside the space-separated `known` list. A
/// misspelled key would otherwise leave its field at the default and run a
/// different experiment than the file describes, without a word.
Status check_keys(const Json& obj, std::string_view known,
                  const std::string& section);

}  // namespace evm::util
