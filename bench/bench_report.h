// bench::Report — the one writer behind every BENCH_*.json file.
//
// A report is an ordered JSON tree (objects keep insertion order) of ints,
// bools, strings and doubles printed at an explicit per-field precision
// (`Json::Fixed(v, 3)` prints exactly what "%.3f" prints). It is written as
//
//   {"results": {...}, "host": {...}}
//
// `host` holds only wall-clock quantities (built with Json::HostFixed), at
// the path they would have under `results`: objects by key, arrays by
// index. Everything else is in `results`, so a deterministic bench's
// `results` block is byte-identical across reruns. In each block an object
// leaves out members with nothing of that block, and an array keeps its
// length by printing such an element as null — so merging `host` into
// `results` (objects by key, arrays by index) restores the whole tree.
#ifndef THINC_BENCH_BENCH_REPORT_H_
#define THINC_BENCH_BENCH_REPORT_H_

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace thinc {
namespace bench {

class Json {
 public:
  using Member = std::pair<std::string, Json>;  // array elements: empty key

  static Json Object(std::initializer_list<Member> members = {}) {
    Json j(Kind::kObject);
    j.members_.assign(members);
    return j;
  }
  static Json Array() { return Json(Kind::kArray); }
  // An array of `to_json(item)` for each of `items`.
  template <typename Items, typename ToJson>
  static Json ArrayOf(const Items& items, ToJson to_json) {
    Json j(Kind::kArray);
    for (const auto& item : items) {
      j.Push(to_json(item));
    }
    return j;
  }

  // Scalars. Integers and bools print in full; a double has no implicit
  // form and goes through Fixed, or HostFixed for a wall-clock value.
  template <typename T>
    requires std::is_integral_v<T>
  Json(T v)
      : kind_(Kind::kScalar),
        token_(std::is_same_v<T, bool> ? (v ? "true" : "false") : std::to_string(v)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(const std::string& s) : kind_(Kind::kScalar), token_(Quote(s)) {}
  static Json Fixed(double v, int precision) {
    Json j(Kind::kScalar);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    j.token_ = buf;
    return j;
  }
  static Json HostFixed(double v, int precision) {
    Json j = Fixed(v, precision);
    j.host_ = true;
    return j;
  }

  // Appends an object member / an array element.
  Json& Set(std::string key, Json value) {
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Json& Push(Json value) { return Set(std::string(), std::move(value)); }

 protected:
  enum class Kind { kObject, kArray, kScalar };
  explicit Json(Kind kind) : kind_(kind) {}

  // The `host` (host == true) or `results` block, nested lines indented as
  // at depth `indent`. A container goes on one line unless it holds a
  // non-empty object or a multi-line child; then one child per line.
  std::string Block(bool host, int indent) const {
    if (kind_ == Kind::kScalar) {
      return token_;
    }
    const bool object = kind_ == Kind::kObject;
    std::vector<std::string> shown;
    bool one_line = true;
    for (const auto& [key, child] : members_) {
      const bool in = child.In(host);
      if (object && !in) {
        continue;
      }
      const std::string value = in ? child.Block(host, indent + 2) : "null";
      one_line = one_line && value.find('\n') == std::string::npos &&
                 !(in && child.kind_ == Kind::kObject && !child.members_.empty());
      shown.push_back(object ? Quote(key) + ": " + value : value);
    }
    const std::string sep = one_line ? " " : "\n" + std::string(indent + 2, ' ');
    std::string out(1, object ? '{' : '[');
    for (size_t i = 0; i < shown.size(); ++i) {
      out += (i > 0 ? "," : "") + (one_line && i == 0 ? "" : sep) + shown[i];
    }
    out += one_line ? "" : "\n" + std::string(indent, ' ');
    return out + (object ? '}' : ']');
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        q += buf;
      } else {
        q += c;
      }
    }
    return q + "\"";
  }

  // Whether the node prints anything in the block (an empty container
  // belongs to `results`).
  bool In(bool host) const {
    if (kind_ == Kind::kScalar || members_.empty()) {
      return host == (kind_ == Kind::kScalar && host_);
    }
    for (const Member& m : members_) {
      if (m.second.In(host)) {
        return true;
      }
    }
    return false;
  }

  Kind kind_;
  std::string token_;  // a scalar's printed form
  bool host_ = false;  // a wall-clock scalar
  std::vector<Member> members_;
};

// The root object of one BENCH_*.json file.
class Report : public Json {
 public:
  Report() : Json(Kind::kObject) {}

  std::string Results() const { return Block(/*host=*/false, 2); }
  std::string Text() const {
    return "{\n  \"results\": " + Results() + ",\n  \"host\": " + Block(true, 2) +
           "\n}\n";
  }

  // Writes the file and, when that worked, prints "wrote <path>".
  void Write(const char* path) const {
    if (std::ofstream(path) << Text()) {
      std::printf("wrote %s\n", path);
    }
  }
};

}  // namespace bench
}  // namespace thinc

#endif  // THINC_BENCH_BENCH_REPORT_H_
