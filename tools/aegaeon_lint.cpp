// aegaeon_lint: the project-native static analyzer (src/lint). Lexes the
// given paths (default: src), runs the determinism/concurrency rule
// catalog, honors inline `// LINT-ALLOW(rule-id): justification`
// suppressions, and exits nonzero on findings. See DESIGN.md §11.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lint/analyzer.h"

namespace {

int Usage(std::ostream& os, int code) {
  os << "usage: aegaeon_lint [options] [path...]\n"
        "\n"
        "Static analysis of the Aegaeon sources for constructs that break the\n"
        "simulator's determinism contract (bit-identical output for identical\n"
        "(config, trace, seed)) or the threaded executors' discipline.\n"
        "Paths may be directories (scanned recursively for *.h, *.cc, *.cpp)\n"
        "or single files; the default is `src`, relative to the current\n"
        "directory, so run it from the repo root.\n"
        "\n"
        "options:\n"
        "  --list-rules     print every rule id with its description and exit\n"
        "  --rule=<id>      only report findings of <id>; repeatable — use this\n"
        "                   to reproduce a CI failure locally one rule at a time\n"
        "  --json[=FILE]    write a SARIF-shaped JSON report to FILE (stdout\n"
        "                   when no FILE); the human-readable report still goes\n"
        "                   to stdout unless it IS stdout\n"
        "  --help           this text\n"
        "\n"
        "Suppressions are inline and self-documenting:\n"
        "    code();  // LINT-ALLOW(rule-id): why this is safe\n"
        "A suppression alone on its line covers the next line. A missing\n"
        "justification or an unknown rule id is itself a finding (rule\n"
        "`lint-allow`), so the allowlist cannot rot.\n"
        "\n"
        "exit status: 0 clean, 1 findings, 2 usage or I/O error\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using aegaeon::lint::AllRules;
  using aegaeon::lint::Rule;

  std::vector<std::string> paths;
  aegaeon::lint::LintOptions options;
  bool want_json = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Usage(std::cout, 0);
    }
    if (arg == "--list-rules") {
      for (const Rule* rule : AllRules()) {
        std::cout << rule->id() << "\n    " << rule->description() << "\n";
      }
      std::cout << "lint-allow\n    malformed suppression: bare LINT-ALLOW without a "
                   "justification, or naming an unknown rule id.\n";
      return 0;
    }
    if (arg.rfind("--rule=", 0) == 0) {
      std::string id = arg.substr(7);
      bool known = id == "lint-allow" || id == "lex-error";
      for (const Rule* rule : AllRules()) {
        known = known || rule->id() == id;
      }
      if (!known) {
        std::cerr << "aegaeon_lint: unknown rule '" << id << "' (see --list-rules)\n";
        return 2;
      }
      options.rule_filter.push_back(std::move(id));
      continue;
    }
    if (arg == "--json") {
      want_json = true;
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      want_json = true;
      json_path = arg.substr(7);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "aegaeon_lint: unknown option '" << arg << "'\n";
      return Usage(std::cerr, 2);
    }
    paths.push_back(std::move(arg));
  }
  if (paths.empty()) {
    paths.emplace_back("src");
  }

  std::vector<std::string> errors;
  const std::vector<aegaeon::lint::FileContent> files =
      aegaeon::lint::CollectFiles(paths, &errors);
  for (const std::string& error : errors) {
    std::cerr << "aegaeon_lint: " << error << "\n";
  }
  if (!errors.empty()) {
    return 2;
  }

  const std::vector<aegaeon::lint::Finding> findings = aegaeon::lint::RunLint(files, options);

  if (want_json) {
    const std::string sarif = aegaeon::lint::FormatSarif(findings);
    if (json_path.empty()) {
      std::cout << sarif;
    } else {
      std::ofstream out(json_path, std::ios::binary);
      if (!out) {
        std::cerr << "aegaeon_lint: cannot write " << json_path << "\n";
        return 2;
      }
      out << sarif;
    }
  }
  if (!want_json || !json_path.empty()) {
    if (findings.empty()) {
      std::cout << "aegaeon_lint: OK (" << files.size() << " files, "
                << (options.rule_filter.empty() ? std::to_string(AllRules().size() + 1) + " rules"
                                                : "filtered rules")
                << ", 0 findings)\n";
    } else {
      std::cout << aegaeon::lint::FormatText(findings);
      std::cout << "aegaeon_lint: " << findings.size() << " finding(s) in " << files.size()
                << " file(s)\n";
    }
  }
  return findings.empty() ? 0 : 1;
}
