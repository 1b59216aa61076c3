#include "util/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "util/parse.hpp"
#include "util/text_table.hpp"

namespace mui::util::json {

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0 if the
/// bytes at i do not start one. Follows RFC 3629: no overlong forms, no
/// surrogates, nothing above U+10FFFF.
std::size_t utf8SequenceLength(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) -> unsigned {
    return k < s.size() ? static_cast<unsigned char>(s[k]) : 0x100;
  };
  const unsigned b0 = byte(i);
  const auto cont = [&](std::size_t k, unsigned lo = 0x80, unsigned hi = 0xBF) {
    const unsigned b = byte(k);
    return b >= lo && b <= hi;
  };
  if (b0 <= 0x7F) return 1;
  if (b0 >= 0xC2 && b0 <= 0xDF) return cont(i + 1) ? 2 : 0;
  if (b0 == 0xE0) return cont(i + 1, 0xA0) && cont(i + 2) ? 3 : 0;
  if (b0 >= 0xE1 && b0 <= 0xEC) return cont(i + 1) && cont(i + 2) ? 3 : 0;
  if (b0 == 0xED) return cont(i + 1, 0x80, 0x9F) && cont(i + 2) ? 3 : 0;
  if (b0 >= 0xEE && b0 <= 0xEF) return cont(i + 1) && cont(i + 2) ? 3 : 0;
  if (b0 == 0xF0) {
    return cont(i + 1, 0x90) && cont(i + 2) && cont(i + 3) ? 4 : 0;
  }
  if (b0 >= 0xF1 && b0 <= 0xF3) {
    return cont(i + 1) && cont(i + 2) && cont(i + 3) ? 4 : 0;
  }
  if (b0 == 0xF4) {
    return cont(i + 1, 0x80, 0x8F) && cont(i + 2) && cont(i + 3) ? 4 : 0;
  }
  return 0;
}

/// The two-character escape of `c`, or nullptr if it has none.
const char* shortEscape(char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\t': return "\\t";
    case '\r': return "\\r";
    case '\b': return "\\b";
    case '\f': return "\\f";
    default: return nullptr;
  }
}

void appendKey(std::string& body, std::string_view key) {
  if (!body.empty()) body += ",";
  body += quote(key);
  body += ":";
}

void appendUtf8(std::string& out, unsigned cp) {
  if (cp <= 0x7F) {
    out += static_cast<char>(cp);
  } else if (cp <= 0x7FF) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp <= 0xFFFF) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool isNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '-' || c == '+';
}

/// Recursive-descent reader. Recursion is bounded by kMaxDepth; the first
/// failure records its offset and stops the parse.
struct Reader {
  std::string_view s;
  std::size_t i = 0;
  std::string error;

  bool fail(std::string_view what) {
    if (error.empty()) {
      error = "offset " + std::to_string(i) + ": " + std::string(what);
    }
    return false;
  }

  void skipWs() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
      ++i;
    }
  }

  bool hex4(unsigned& out) {
    const char* p = s.data() + i;
    if (i + 4 > s.size() || std::from_chars(p, p + 4, out, 16).ptr != p + 4) {
      return fail("bad \\u escape");
    }
    i += 4;
    return true;
  }

  /// s[i] is the opening quote. Unescaped runs are copied in bulk.
  bool string(std::string& out) {
    ++i;
    while (true) {
      const std::size_t run = i;
      while (i < s.size() && s[i] != '"' && s[i] != '\\') ++i;
      out.append(s.data() + run, i - run);
      if (i >= s.size()) return fail("unterminated string");
      if (s[i++] == '"') return true;
      if (i >= s.size()) return fail("unterminated string");
      switch (s[i++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (i + 1 < s.size() && s[i] == '\\' && s[i + 1] == 'u') {
              i += 2;
              unsigned lo = 0;
              if (!hex4(lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("high surrogate without a low one");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              cp = 0xFFFD;  // unpaired surrogate
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          --i;
          return fail("bad escape in string");
      }
    }
  }

  /// Numbers keep the token; it must be one strtod() reads in full.
  bool number(Value& out) {
    const std::size_t start = i;
    if (s[i] == '-' || s[i] == '+') ++i;
    bool digits = false;
    while (i < s.size() && isNumberChar(s[i])) {
      digits = digits || (s[i] >= '0' && s[i] <= '9');
      ++i;
    }
    out.kind = Value::Kind::Number;
    out.text.assign(s.data() + start, i - start);
    char* end = nullptr;
    std::strtod(out.text.c_str(), &end);
    if (!digits || end != out.text.c_str() + out.text.size()) {
      i = start;
      return fail("malformed value");
    }
    return true;
  }

  bool literal(std::string_view word) {
    if (s.compare(i, word.size(), word) != 0) return fail("malformed value");
    i += word.size();
    return true;
  }

  bool value(Value& out, std::size_t depth) {
    skipWs();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
      }
      ++i;
      return c == '{' ? object(out, depth + 1) : array(out, depth + 1);
    }
    if (c == '"') {
      out.kind = Value::Kind::String;
      return string(out.text);
    }
    if (c == 't' || c == 'f') {
      out.kind = Value::Kind::Bool;
      out.boolean = c == 't';
      return literal(out.boolean ? "true" : "false");
    }
    if (c == 'n') return literal("null");
    return number(out);
  }

  /// Skips whitespace, then consumes `c` if it comes next.
  bool eat(char c) {
    skipWs();
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  }

  /// After the '{'.
  bool object(Value& out, std::size_t depth) {
    out.kind = Value::Kind::Object;
    if (eat('}')) return true;
    do {
      skipWs();
      if (i >= s.size() || s[i] != '"') return fail("expected an object key");
      Value::Member& m = out.members.emplace_back();
      if (!string(m.key)) return false;
      if (!eat(':')) return fail("expected ':' after an object key");
      if (!value(m.value, depth)) return false;
    } while (eat(','));
    return eat('}') || fail("expected ',' or '}' in an object");
  }

  /// After the '['.
  bool array(Value& out, std::size_t depth) {
    out.kind = Value::Kind::Array;
    if (eat(']')) return true;
    do {
      if (!value(out.items.emplace_back(), depth)) return false;
    } while (eat(','));
    return eat(']') || fail("expected ',' or ']' in an array");
  }
};

/// Member `key` of `v` if it has kind `kind`.
const Value* member(const Value& v, std::string_view key, Value::Kind kind) {
  const Value* m = v.find(key);
  return m != nullptr && m->kind == kind ? m : nullptr;
}

void writeTo(std::string& out, const Value& v) {
  switch (v.kind) {
    case Value::Kind::Null:
      out += "null";
      return;
    case Value::Kind::Bool:
      out += v.boolean ? "true" : "false";
      return;
    case Value::Kind::Number:
      out += v.text;
      return;
    case Value::Kind::String:
      out += quote(v.text);
      return;
    case Value::Kind::Array:
      out += '[';
      for (std::size_t k = 0; k < v.items.size(); ++k) {
        if (k > 0) out += ',';
        writeTo(out, v.items[k]);
      }
      out += ']';
      return;
    case Value::Kind::Object:
      out += '{';
      for (std::size_t k = 0; k < v.members.size(); ++k) {
        if (k > 0) out += ',';
        out += quote(v.members[k].key);
        out += ':';
        writeTo(out, v.members[k].value);
      }
      out += '}';
      return;
  }
}

}  // namespace

std::string escape(std::string_view s) {
  const auto plain = [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return u >= 0x20 && u < 0x80 && c != '"' && c != '\\';
  };
  std::string out;
  out.reserve(s.size());
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t run = i;  // printable ASCII is copied in bulk
    while (i < s.size() && plain(s[i])) ++i;
    out.append(s.substr(run, i - run));
    if (i == s.size()) break;
    const auto u = static_cast<unsigned char>(s[i]);
    if (const char* e = shortEscape(s[i])) {
      out += e;
      ++i;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
      ++i;
    } else if (const std::size_t len = utf8SequenceLength(s, i)) {
      out.append(s.substr(i, len));
      i += len;
    } else {
      out += "\\ufffd";
      ++i;
    }
  }
  return out;
}

std::string quote(std::string_view s) { return "\"" + escape(s) + "\""; }

Object& Object::s(std::string_view key, std::string_view value) {
  appendKey(body_, key);
  body_ += quote(value);
  return *this;
}

Object& Object::u(std::string_view key, std::uint64_t value) {
  appendKey(body_, key);
  body_ += std::to_string(value);
  return *this;
}

Object& Object::i(std::string_view key, std::int64_t value) {
  appendKey(body_, key);
  body_ += std::to_string(value);
  return *this;
}

Object& Object::f(std::string_view key, double value, int digits) {
  appendKey(body_, key);
  body_ += util::fmt(value, digits);
  return *this;
}

Object& Object::b(std::string_view key, bool value) {
  appendKey(body_, key);
  body_ += value ? "true" : "false";
  return *this;
}

Object& Object::raw(std::string_view key, std::string_view json) {
  appendKey(body_, key);
  body_ += json;
  return *this;
}

std::string Object::str() const { return "{" + body_ + "}"; }

const Value* Value::find(std::string_view key) const {
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->key == key) return &it->value;
  }
  return nullptr;
}

std::optional<std::string_view> Value::str(std::string_view key) const {
  if (const Value* v = member(*this, key, Kind::String)) return v->text;
  return std::nullopt;
}

std::optional<double> Value::num(std::string_view key) const {
  if (const Value* v = member(*this, key, Kind::Number)) {
    return std::strtod(v->text.c_str(), nullptr);
  }
  return std::nullopt;
}

std::optional<bool> Value::flag(std::string_view key) const {
  if (const Value* v = member(*this, key, Kind::Bool)) return v->boolean;
  return std::nullopt;
}

std::optional<std::uint64_t> Value::u64(std::string_view key) const {
  const Value* v = member(*this, key, Kind::Number);
  if (v == nullptr) return std::nullopt;
  std::uint64_t n = 0;
  if (parseUint64(v->text, n) != std::errc()) return std::nullopt;
  return n;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Reader r{text, 0, {}};
  Value v;
  bool ok = r.value(v, 0);
  if (ok) {
    r.skipWs();
    if (r.i < text.size()) ok = r.fail("trailing characters after the value");
  }
  if (!ok) {
    if (error != nullptr) *error = std::move(r.error);
    return std::nullopt;
  }
  return v;
}

std::string write(const Value& value) {
  std::string out;
  writeTo(out, value);
  return out;
}

}  // namespace mui::util::json
