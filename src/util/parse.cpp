#include "util/parse.hpp"

#include <cctype>
#include <charconv>

namespace mui::util {

std::errc parseUint64(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  std::uint64_t v = 0;
  // from_chars takes no sign for an unsigned type and reports overflow.
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ptr != end) return std::errc::invalid_argument;
  if (ec != std::errc()) return ec;
  out = v;
  return {};
}

char Cursor::advance() {
  const char c = text_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

void Cursor::skipWs() {
  while (!atEnd()) {
    const char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '#' || (c == '/' && peekAt(1) == '/')) {
      while (!atEnd() && peek() != '\n') advance();
    } else {
      break;
    }
  }
}

bool Cursor::tryConsume(std::string_view tok) {
  skipWs();
  if (text_.substr(pos_).substr(0, tok.size()) != tok) return false;
  for (std::size_t i = 0; i < tok.size(); ++i) advance();
  return true;
}

void Cursor::expect(std::string_view tok) {
  if (!tryConsume(tok)) fail("expected '" + std::string(tok) + "'");
}

namespace {
bool isIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool isIdentTail(char c) {
  // '@' appears in generated state names (clock valuations, channel ages)
  // and therefore in auto-generated propositions.
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == ':' || c == '@';
}
}  // namespace

bool Cursor::tryKeyword(std::string_view kw) {
  skipWs();
  if (text_.substr(pos_).substr(0, kw.size()) != kw) return false;
  const char after = pos_ + kw.size() < text_.size() ? text_[pos_ + kw.size()] : '\0';
  if (isIdentTail(after)) return false;
  for (std::size_t i = 0; i < kw.size(); ++i) advance();
  return true;
}

std::string Cursor::identifier() {
  skipWs();
  if (atEnd() || !isIdentStart(peek())) fail("expected identifier");
  std::string out;
  while (!atEnd() && isIdentTail(peek())) out += advance();
  return out;
}

std::size_t Cursor::integer() {
  skipWs();
  if (atEnd() || !std::isdigit(static_cast<unsigned char>(peek()))) {
    fail("expected integer");
  }
  std::size_t v = 0;
  while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek()))) {
    v = v * 10 + static_cast<std::size_t>(advance() - '0');
  }
  return v;
}

std::string Cursor::quotedString() {
  skipWs();
  if (atEnd() || peek() != '"') fail("expected string literal");
  advance();
  std::string out;
  while (!atEnd() && peek() != '"') {
    char c = advance();
    if (c == '\\' && !atEnd()) c = advance();
    out += c;
  }
  if (atEnd()) fail("unterminated string literal");
  advance();
  return out;
}

void Cursor::fail(const std::string& msg) const {
  throw ParseError(msg, source_, line_, col_);
}

void Cursor::failSemantic(const std::string& msg) const {
  throw SemanticError(msg, source_, line_, col_);
}

}  // namespace mui::util
