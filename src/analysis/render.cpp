#include "analysis/render.hpp"

#include <cstdio>

#include "analysis/rules.hpp"
#include "util/json.hpp"

namespace mui::analysis {

namespace {

using util::json::escape;

/// SARIF "level" values happen to match our severity names.
const char* sarifLevel(Severity s) { return severityName(s); }

}  // namespace

std::string renderText(const Report& report) {
  std::string out;
  for (const auto& d : report.diagnostics) {
    out += d.toString();
    out += '\n';
    for (const auto& note : d.related) {
      out += "    note: ";
      if (note.loc.known()) out += note.loc.toString() + ": ";
      out += note.message;
      out += '\n';
    }
  }
  const std::size_t errors = report.count(Severity::Error);
  const std::size_t warnings = report.count(Severity::Warning);
  const std::size_t notes = report.count(Severity::Note);
  if (errors == 0 && warnings == 0 && notes == 0) {
    out += "clean";
  } else {
    out += std::to_string(errors) + " error(s), " + std::to_string(warnings) +
           " warning(s), " + std::to_string(notes) + " note(s)";
  }
  if (report.suppressed != 0) {
    out += " (" + std::to_string(report.suppressed) + " suppressed)";
  }
  out += '\n';
  return out;
}

std::string writeSarif(const Report& report) {
  std::string out;
  out +=
      "{\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"mui-lint\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/mui/docs/LINT_RULES.md\",\n"
      "          \"rules\": [\n";
  const auto& rules = allRules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": \"" + escape(rules[i].id) +
           "\", \"name\": \"" + escape(rules[i].name) +
           "\", \"shortDescription\": {\"text\": \"" +
           escape(rules[i].description) +
           "\"}, \"defaultConfiguration\": {\"level\": \"" +
           sarifLevel(rules[i].defaultSeverity) + "\"}}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    out += "        {\"ruleId\": \"" + escape(d.ruleId) +
           "\", \"level\": \"" + sarifLevel(d.severity) +
           "\", \"message\": {\"text\": \"" + escape(d.message) + "\"}";
    if (d.loc.known()) {
      out += ", \"locations\": [{\"physicalLocation\": "
             "{\"artifactLocation\": {\"uri\": \"" +
             escape(d.loc.file) + "\"}, \"region\": {\"startLine\": " +
             std::to_string(d.loc.line) +
             ", \"startColumn\": " + std::to_string(d.loc.col) + "}}}]";
    }
    // The semantic tier's supporting chains (dominator must-pass states,
    // per-conjunct proof facts) ride along as relatedLocations.
    if (!d.related.empty()) {
      out += ", \"relatedLocations\": [";
      for (std::size_t j = 0; j < d.related.size(); ++j) {
        const RelatedNote& note = d.related[j];
        out += "{\"message\": {\"text\": \"" + escape(note.message) + "\"}";
        if (note.loc.known()) {
          out += ", \"physicalLocation\": {\"artifactLocation\": {\"uri\": "
                 "\"" +
                 escape(note.loc.file) + "\"}, \"region\": {\"startLine\": " +
                 std::to_string(note.loc.line) +
                 ", \"startColumn\": " + std::to_string(note.loc.col) + "}}";
        }
        out += "}";
        if (j + 1 < d.related.size()) out += ", ";
      }
      out += "]";
    }
    out += "}";
    out += i + 1 < report.diagnostics.size() ? ",\n" : "\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace mui::analysis
