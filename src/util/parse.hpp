#pragma once
// Minimal recursive-descent parsing kit shared by the CCTL formula parser
// (ctl/parser) and the .muml model-file parser (muml/loader).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace mui::util {

/// Reads `text` as a decimal std::uint64_t written in digits only: no
/// sign, space or base prefix. Returns std::errc{} and sets `out`;
/// std::errc::invalid_argument when `text` is empty or holds anything but
/// digits; std::errc::result_out_of_range when it exceeds 2^64 − 1.
std::errc parseUint64(std::string_view text, std::uint64_t& out);

/// A position in a source text, as carried by parser diagnostics and by the
/// loader's per-definition bookkeeping (muml::ModelSource). Line/column are
/// 1-based; a zero line means "unknown" (e.g. models built programmatically).
struct SourceLoc {
  std::string file;
  std::size_t line = 0;
  std::size_t col = 0;

  [[nodiscard]] bool known() const { return line != 0; }

  /// "file.muml:3:7" (or ":3:7" without a file name); empty when unknown.
  [[nodiscard]] std::string toString() const {
    if (!known()) return {};
    return file + ":" + std::to_string(line) + ":" + std::to_string(col);
  }

  bool operator==(const SourceLoc&) const = default;
};

/// Formats "file.muml:3:7: msg" when a source name is known and the
/// legacy "msg (line 3, col 7)" otherwise.
inline std::string locatedMessage(const std::string& msg,
                                  const std::string& source, std::size_t line,
                                  std::size_t col) {
  if (source.empty()) {
    return msg + " (line " + std::to_string(line) + ", col " +
           std::to_string(col) + ")";
  }
  return source + ":" + std::to_string(line) + ":" + std::to_string(col) +
         ": " + msg;
}

/// Raised on any syntax error; carries a human-readable location.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& msg, std::size_t line, std::size_t col)
      : ParseError(msg, "", line, col) {}

  ParseError(const std::string& msg, const std::string& source,
             std::size_t line, std::size_t col)
      : std::runtime_error(locatedMessage(msg, source, line, col)),
        line_(line),
        col_(col) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t col() const { return col_; }

 private:
  std::size_t line_;
  std::size_t col_;
};

/// Raised on semantic errors found while parsing (duplicate names, unknown
/// references). Derives from std::invalid_argument — the exception type the
/// model classes themselves throw — but adds the source location.
class SemanticError : public std::invalid_argument {
 public:
  SemanticError(const std::string& msg, const std::string& source,
                std::size_t line, std::size_t col)
      : std::invalid_argument(locatedMessage(msg, source, line, col)),
        line_(line),
        col_(col) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t col() const { return col_; }

 private:
  std::size_t line_;
  std::size_t col_;
};

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// `sourceName` (e.g. a file name) prefixes every error location.
  Cursor(std::string_view text, std::string sourceName)
      : text_(text), source_(std::move(sourceName)) {}

  [[nodiscard]] bool atEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return atEnd() ? '\0' : text_[pos_]; }
  [[nodiscard]] char peekAt(std::size_t off) const {
    return pos_ + off >= text_.size() ? '\0' : text_[pos_ + off];
  }

  char advance();

  /// Skips spaces, tabs, newlines, and `#`/`//` line comments.
  void skipWs();

  /// Consumes `tok` (after skipping whitespace) or returns false.
  bool tryConsume(std::string_view tok);

  /// Consumes `tok` or throws ParseError.
  void expect(std::string_view tok);

  /// True iff the next token is the keyword `kw` (identifier-bounded).
  bool tryKeyword(std::string_view kw);

  /// Parses an identifier: [A-Za-z_][A-Za-z0-9_.:]* . The extended tail
  /// characters allow dotted proposition names like `shuttle1.noConvoy` and
  /// hierarchical state names like `noConvoy::default`.
  std::string identifier();

  /// Parses a non-negative integer literal.
  std::size_t integer();

  /// Parses a double-quoted string literal with \" and \\ escapes.
  std::string quotedString();

  [[noreturn]] void fail(const std::string& msg) const;

  /// Like fail(), but for semantic errors: throws SemanticError (an
  /// invalid_argument) carrying the current location.
  [[noreturn]] void failSemantic(const std::string& msg) const;

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] std::size_t col() const { return col_; }
  [[nodiscard]] const std::string& sourceName() const { return source_; }

 private:
  std::string_view text_;
  std::string source_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
};

}  // namespace mui::util
