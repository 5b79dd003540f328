#include "obs/json.h"

#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>

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

double Json::as_num() const {
  switch (kind_) {
    case Kind::number: return num_;
    case Kind::integer: return static_cast<double>(int_);
    case Kind::uinteger: return static_cast<double>(uint_);
    default: return 0;
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
