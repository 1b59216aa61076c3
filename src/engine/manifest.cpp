#include "engine/manifest.hpp"

#include <cstdint>
#include <filesystem>
#include <optional>
#include <utility>

#include "util/parse.hpp"

namespace mui::engine {

namespace {

struct Token {
  std::string key;
  std::string value;
  std::size_t col = 1;       // 1-based column of the key
  std::size_t valueCol = 1;  // 1-based column of the value
};

class LineLexer {
 public:
  LineLexer(std::string_view line, const std::string& source, std::size_t lineNo)
      : line_(line), source_(source), lineNo_(lineNo) {}

  /// Next `key=value` token, or nullopt at end of line / comment start.
  std::optional<Token> next() {
    skipSpace();
    if (atEnd()) return std::nullopt;
    Token tok;
    tok.col = pos_ + 1;
    while (!atEnd() && line_[pos_] != '=' && !isSpace(line_[pos_])) {
      tok.key += line_[pos_++];
    }
    if (atEnd() || line_[pos_] != '=') {
      fail("expected key=value, got '" + tok.key + "'", tok.col);
    }
    ++pos_;  // '='
    tok.valueCol = pos_ + 1;
    if (!atEnd() && line_[pos_] == '"') {
      ++pos_;
      while (!atEnd() && line_[pos_] != '"') {
        char c = line_[pos_++];
        if (c == '\\' && !atEnd()) c = line_[pos_++];
        tok.value += c;
      }
      if (atEnd()) fail("unterminated string value", tok.col);
      ++pos_;  // closing '"'
    } else {
      while (!atEnd() && !isSpace(line_[pos_])) tok.value += line_[pos_++];
    }
    return tok;
  }

  /// First word of the line (the directive).
  std::string word() {
    skipSpace();
    std::string w;
    while (!atEnd() && !isSpace(line_[pos_])) w += line_[pos_++];
    return w;
  }

  [[noreturn]] void fail(const std::string& msg, std::size_t col) const {
    throw util::ParseError(msg, source_, lineNo_, col);
  }

 private:
  static bool isSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  [[nodiscard]] bool atEnd() const {
    return pos_ >= line_.size() || line_[pos_] == '#' ||
           (line_[pos_] == '/' && pos_ + 1 < line_.size() &&
            line_[pos_ + 1] == '/');
  }

  void skipSpace() {
    while (pos_ < line_.size() && isSpace(line_[pos_])) ++pos_;
  }

  std::string_view line_;
  const std::string& source_;
  std::size_t lineNo_;
  std::size_t pos_ = 0;
};

std::uint64_t parseCount(const Token& tok, const LineLexer& lex) {
  if (tok.value.empty()) lex.fail("empty value for " + tok.key, tok.col);
  std::uint64_t v = 0;
  const std::errc ec = util::parseUint64(tok.value, v);
  if (ec == std::errc::result_out_of_range) {
    lex.fail("value of " + tok.key + " is out of range (at most " +
                 std::to_string(UINT64_MAX) + "), got '" + tok.value + "'",
             tok.valueCol);
  }
  if (ec != std::errc()) {
    lex.fail("value of " + tok.key + " must be a non-negative integer, got '" +
                 tok.value + "'",
             tok.col);
  }
  return v;
}

std::string resolvePath(const std::string& path, const std::string& baseDir) {
  if (baseDir.empty()) return path;
  const std::filesystem::path p(path);
  if (p.is_absolute()) return path;
  return (std::filesystem::path(baseDir) / p).lexically_normal().string();
}

/// Applies one key=value to `job`. Returns false for an unknown key.
bool applyField(Job& job, const Token& tok, const LineLexer& lex,
                const std::string& baseDir, bool allowName) {
  if (tok.key == "name") {
    if (!allowName) lex.fail("'name' is not allowed in a default", tok.col);
    job.name = tok.value;
  } else if (tok.key == "model") {
    job.modelPath = resolvePath(tok.value, baseDir);
  } else if (tok.key == "pattern") {
    job.pattern = tok.value;
  } else if (tok.key == "role") {
    job.legacyRole = tok.value;
  } else if (tok.key == "hidden") {
    job.hidden = tok.value;
  } else if (tok.key == "formula") {
    job.formula = tok.value;
  } else if (tok.key == "timeout-ms") {
    job.timeoutMs = parseCount(tok, lex);
  } else if (tok.key == "max-iterations") {
    job.maxIterations = static_cast<std::size_t>(parseCount(tok, lex));
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::vector<Job> parseManifest(std::string_view text,
                               const std::string& sourceName,
                               const std::string& baseDir) {
  std::vector<Job> jobs;
  Job defaults;  // accumulated `default` directive values (name unused)

  std::size_t lineNo = 0;
  std::size_t lineStart = 0;
  while (lineStart <= text.size()) {
    const std::size_t eol = text.find('\n', lineStart);
    const std::string_view line =
        text.substr(lineStart, eol == std::string_view::npos
                                   ? std::string_view::npos
                                   : eol - lineStart);
    ++lineNo;

    LineLexer lex(line, sourceName, lineNo);
    const std::string directive = lex.word();
    if (directive.empty()) {
      // blank or comment-only line
    } else if (directive == "default") {
      while (const auto tok = lex.next()) {
        if (!applyField(defaults, *tok, lex, baseDir, /*allowName=*/false)) {
          lex.fail("unknown key '" + tok->key + "'", tok->col);
        }
      }
    } else if (directive == "job") {
      Job job = defaults;
      job.name.clear();
      while (const auto tok = lex.next()) {
        if (!applyField(job, *tok, lex, baseDir, /*allowName=*/true)) {
          lex.fail("unknown key '" + tok->key + "'", tok->col);
        }
      }
      if (job.name.empty()) job.name = "job" + std::to_string(jobs.size() + 1);
      const std::pair<const char*, const std::string*> required[] = {
          {"model", &job.modelPath},
          {"pattern", &job.pattern},
          {"role", &job.legacyRole},
          {"hidden", &job.hidden}};
      for (const auto& [field, value] : required) {
        if (value->empty()) {
          lex.fail("job '" + job.name + "' is missing required key '" + field +
                       "'",
                   1);
        }
      }
      jobs.push_back(std::move(job));
    } else {
      lex.fail("expected 'job' or 'default', got '" + directive + "'", 1);
    }

    if (eol == std::string_view::npos) break;
    lineStart = eol + 1;
  }
  return jobs;
}

std::string writeManifest(const std::vector<Job>& jobs) {
  std::string out;
  const auto quote = [](const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return q;
  };
  for (const auto& job : jobs) {
    out += "job name=" + job.name + " model=" + job.modelPath +
           " pattern=" + job.pattern + " role=" + job.legacyRole +
           " hidden=" + job.hidden;
    if (!job.formula.empty()) out += " formula=" + quote(job.formula);
    if (job.timeoutMs != 0) {
      out += " timeout-ms=" + std::to_string(job.timeoutMs);
    }
    if (job.maxIterations != 0) {
      out += " max-iterations=" + std::to_string(job.maxIterations);
    }
    out += '\n';
  }
  return out;
}

}  // namespace mui::engine
