// A minimal JSON document builder with deterministic output.
//
// Object keys keep insertion order, numbers are formatted with fixed
// rules and nothing depends on wall clock or addresses, so dumping the
// same value tree always yields the same bytes — the property the
// BENCH_*.json determinism check in CI relies on.
//
// `parse()` is the inverse, just big enough to read the documents the
// builder writes (simsweep --summary aggregates per-seed SLO JSONs):
// strict recursive descent, no comments, \uXXXX escapes decoded only
// for the ASCII range.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace amoeba::obs {

class Json {
 public:
  Json() : kind_(Kind::null) {}

  static Json object() { return Json(Kind::object); }
  static Json array() { return Json(Kind::array); }
  static Json null() { return Json(Kind::null); }
  static Json boolean(bool b) {
    Json j(Kind::boolean);
    j.bool_ = b;
    return j;
  }
  static Json num(double v) {
    Json j(Kind::number);
    j.num_ = v;
    return j;
  }
  static Json integer(std::int64_t v) {
    Json j(Kind::integer);
    j.int_ = v;
    return j;
  }
  static Json uinteger(std::uint64_t v) {
    Json j(Kind::uinteger);
    j.uint_ = v;
    return j;
  }
  static Json str(std::string s) {
    Json j(Kind::string);
    j.str_ = std::move(s);
    return j;
  }

  /// Object member (insertion-ordered). Returns *this for chaining.
  Json& set(const std::string& key, Json v);
  /// Array element.
  Json& push(Json v);

  [[nodiscard]] bool is_null() const { return kind_ == Kind::null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::number || kind_ == Kind::integer ||
           kind_ == Kind::uinteger;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Array length (0 when not an array).
  [[nodiscard]] std::size_t size() const {
    return kind_ == Kind::array ? arr_.size() : 0;
  }
  /// Array element; `i` must be < size().
  [[nodiscard]] const Json& at(std::size_t i) const { return arr_[i]; }

  /// Numeric value as double; `def` when this is not a number.
  [[nodiscard]] double as_num(double def = 0) const;
  [[nodiscard]] std::int64_t as_int(std::int64_t def = 0) const;
  [[nodiscard]] const std::string& as_str() const { return str_; }
  [[nodiscard]] bool as_bool(bool def = false) const {
    return kind_ == Kind::boolean ? bool_ : def;
  }

  /// Parse a JSON document; std::nullopt on any syntax error or
  /// trailing garbage.
  static std::optional<Json> parse(std::string_view text);

  /// Serialize with 2-space indentation and a trailing newline.
  [[nodiscard]] std::string dump() const;

 private:
  enum class Kind : std::uint8_t {
    null,
    boolean,
    number,
    integer,
    uinteger,
    string,
    array,
    object
  };
  explicit Json(Kind k) : kind_(k) {}

  void write(std::string& out, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Write `text` (a dump, a report) to `path`. Returns false, after saying
/// so on stderr, when the file cannot be created.
bool write_file(const std::string& path, const std::string& text);

}  // namespace amoeba::obs
