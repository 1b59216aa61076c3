#pragma once
// The one JSON codec of the tree. Every JSON/JSONL artifact the program
// writes — journal events, the batch report, serve wire lines, cache-log
// records, adapter protocol lines, traces, metrics — is built with the
// `Object` writer (SARIF's pinned indented layout and the bench artifacts
// call the escaper directly), so control characters and invalid UTF-8 in
// model, job or state names can never produce an unparseable artifact.
// Everything the program reads back goes through `parse`, one
// depth-bounded reader into an insertion-ordered `Value` tree; `write` is
// its compact inverse and keeps number tokens verbatim, so
// write(parse(line)) == line for every line the program emits whose
// strings were valid UTF-8 (the escaper's � replacement is lossy by
// design).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mui::util::json {

/// Escapes `s` for embedding between double quotes in JSON: `"` and `\`
/// are backslash-escaped, control characters (U+0000..U+001F) become their
/// short escape (\n, \t, \r, \b, \f) or \u00XX, well-formed UTF-8
/// sequences pass through unchanged, and every byte that is not part of a
/// well-formed UTF-8 sequence is replaced by � (REPLACEMENT
/// CHARACTER). The output is therefore always valid UTF-8 and always a
/// valid JSON string body.
std::string escape(std::string_view s);

/// `"` + escape(s) + `"`.
std::string quote(std::string_view s);

/// Builder for one JSON object: `.s()` string, `.u()`/`.i()` integer,
/// `.f()` fixed-point double, `.b()` bool, `.raw()` pre-serialized value.
/// Insertion order is preserved.
class Object {
 public:
  Object& s(std::string_view key, std::string_view value);
  Object& u(std::string_view key, std::uint64_t value);
  Object& i(std::string_view key, std::int64_t value);
  Object& f(std::string_view key, double value, int digits = 3);
  Object& b(std::string_view key, bool value);
  Object& raw(std::string_view key, std::string_view json);

  /// The object as `{...}`.
  std::string str() const;
  bool empty() const { return body_.empty(); }

 private:
  std::string body_;
};

/// Objects and arrays nested deeper than this are a parse error, so a
/// hostile `[[[[…` is rejected with a located message instead of
/// exhausting the stack. Nothing the program writes nests deeper than 5
/// (a histogram bucket in the metrics JSON).
inline constexpr std::size_t kMaxDepth = 64;

/// One parsed JSON value. Strings are decoded; a number keeps its token
/// verbatim in `text` (read it with num() or u64()); object members keep
/// document order, repeated keys included.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  struct Member;

  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;              // String: decoded; Number: the token
  std::vector<Value> items;      // Array
  std::vector<Member> members;   // Object

  /// Object member `key` (the last one if it repeats, as a map would
  /// keep it), or nullptr when absent or this is not an object.
  const Value* find(std::string_view key) const;

  /// Typed lookups of member `key`: nullopt when it is absent or of
  /// another kind.
  std::optional<std::string_view> str(std::string_view key) const;
  std::optional<double> num(std::string_view key) const;
  std::optional<bool> flag(std::string_view key) const;
  /// Only a plain digit token that fits in 64 bits has a value: "-1",
  /// "2.5", "1e3" and "18446744073709551616" all read as nullopt.
  std::optional<std::uint64_t> u64(std::string_view key) const;
};

struct Value::Member {
  std::string key;
  Value value;
};

/// Parses one JSON document: a single value of any kind with optional
/// surrounding whitespace. Returns nullopt on malformed input and, when
/// `error` is given, stores a located reason there ("offset 7: expected
/// ':' after an object key").
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// Compact serialization: no whitespace, members in order, strings through
/// escape(), number tokens as stored.
std::string write(const Value& value);

}  // namespace mui::util::json
