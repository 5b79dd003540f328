#include "obs/json.h"

#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace amoeba::obs {

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void indent_into(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

}  // namespace

Json& Json::set(const std::string& key, Json v) {
  assert(kind_ == Kind::object);
  obj_.emplace_back(key, std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::as_num(double def) const {
  switch (kind_) {
    case Kind::number: return num_;
    case Kind::integer: return static_cast<double>(int_);
    case Kind::uinteger: return static_cast<double>(uint_);
    default: return def;
  }
}

std::int64_t Json::as_int(std::int64_t def) const {
  switch (kind_) {
    case Kind::number: return static_cast<std::int64_t>(num_);
    case Kind::integer: return int_;
    case Kind::uinteger: return static_cast<std::int64_t>(uint_);
    default: return def;
  }
}

Json& Json::push(Json v) {
  assert(kind_ == Kind::array);
  arr_.push_back(std::move(v));
  return *this;
}

void Json::write(std::string& out, int depth) const {
  char buf[64];
  switch (kind_) {
    case Kind::null:
      out += "null";
      return;
    case Kind::boolean:
      out += bool_ ? "true" : "false";
      return;
    case Kind::integer:
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      out += buf;
      return;
    case Kind::uinteger:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
      out += buf;
      return;
    case Kind::number:
      if (!std::isfinite(num_)) {
        out += "null";
      } else if (num_ == static_cast<double>(static_cast<std::int64_t>(num_))) {
        // Whole values print as integers ("5" not "5.0"): stable and short.
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(num_));
        out += buf;
      } else {
        std::snprintf(buf, sizeof(buf), "%.6g", num_);
        out += buf;
      }
      return;
    case Kind::string:
      escape_into(out, str_);
      return;
    case Kind::array: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        indent_into(out, depth + 1);
        arr_[i].write(out, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += '\n';
      }
      indent_into(out, depth);
      out += ']';
      return;
    }
    case Kind::object: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        indent_into(out, depth + 1);
        escape_into(out, obj_[i].first);
        out += ": ";
        obj_[i].second.write(out, depth + 1);
        if (i + 1 < obj_.size()) out += ',';
        out += '\n';
      }
      indent_into(out, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0);
  out += '\n';
  return out;
}

// ------------------------------------------------------------------ parse

namespace {

/// Cursor over the input; every helper returns false on malformed text
/// and leaves a partial value behind that the caller discards.
struct Parser {
  std::string_view in;
  std::size_t at = 0;

  void skip_ws() {
    while (at < in.size() && (in[at] == ' ' || in[at] == '\t' ||
                              in[at] == '\n' || in[at] == '\r')) {
      ++at;
    }
  }
  [[nodiscard]] bool eat(char c) {
    if (at < in.size() && in[at] == c) {
      ++at;
      return true;
    }
    return false;
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    while (at < in.size()) {
      const char c = in[at++];
      if (c == '"') return true;
      if (c == '\\') {
        if (at >= in.size()) return false;
        const char e = in[at++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (at + 4 > in.size()) return false;
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = in[at++];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // The builder only ever escapes control characters; decode
            // the ASCII range and replace anything wider with '?'.
            out += v < 0x80 ? static_cast<char>(v) : '?';
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Json& out) {
    const std::size_t start = at;
    if (at < in.size() && in[at] == '-') ++at;
    bool fractional = false;
    while (at < in.size()) {
      const char c = in[at];
      if (c >= '0' && c <= '9') {
        ++at;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        fractional = true;
        ++at;
      } else {
        break;
      }
    }
    if (at == start) return false;
    const std::string tok(in.substr(start, at - start));
    char* end = nullptr;
    if (!fractional) {
      if (tok[0] == '-') {
        const std::int64_t v = std::strtoll(tok.c_str(), &end, 10);
        if (end == tok.c_str() + tok.size()) {
          out = Json::integer(v);
          return true;
        }
      } else {
        const std::uint64_t v = std::strtoull(tok.c_str(), &end, 10);
        if (end == tok.c_str() + tok.size()) {
          out = Json::uinteger(v);
          return true;
        }
      }
    }
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) return false;
    out = Json::num(v);
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > 64) return false;  // runaway nesting
    skip_ws();
    if (at >= in.size()) return false;
    const char c = in[at];
    if (c == '{') {
      ++at;
      out = Json::object();
      skip_ws();
      if (eat('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!eat(':')) return false;
        Json v;
        if (!parse_value(v, depth + 1)) return false;
        out.set(key, std::move(v));
        skip_ws();
        if (eat('}')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '[') {
      ++at;
      out = Json::array();
      skip_ws();
      if (eat(']')) return true;
      while (true) {
        Json v;
        if (!parse_value(v, depth + 1)) return false;
        out.push(std::move(v));
        skip_ws();
        if (eat(']')) return true;
        if (!eat(',')) return false;
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Json::str(std::move(s));
      return true;
    }
    if (in.substr(at, 4) == "true") {
      at += 4;
      out = Json::boolean(true);
      return true;
    }
    if (in.substr(at, 5) == "false") {
      at += 5;
      out = Json::boolean(false);
      return true;
    }
    if (in.substr(at, 4) == "null") {
      at += 4;
      out = Json::null();
      return true;
    }
    return parse_number(out);
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  Json v;
  if (!p.parse_value(v, 0)) return std::nullopt;
  p.skip_ws();
  if (p.at != text.size()) return std::nullopt;  // trailing garbage
  return v;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace amoeba::obs
