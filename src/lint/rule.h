// Rule interface for aegaeon_lint. A rule is a pass over one file's token
// stream (CheckFile) and/or over the whole file set (CheckProject — the
// include-graph passes). Rules only *emit* findings; inline-suppression
// filtering (suppression.h) happens afterwards in the analyzer, so a rule
// never needs to know about allowlists.

#ifndef AEGAEON_LINT_RULE_H_
#define AEGAEON_LINT_RULE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/finding.h"
#include "lint/token.h"

namespace aegaeon {
namespace lint {

// One lexed file. `path` is as given to the analyzer (repo-relative in the
// CLI); rules that depend on location (e.g. the include-graph passes, which
// key files by include spelling) normalize it, so "src/x.h" and "./src/x.h"
// agree.
struct SourceFile {
  std::string path;
  LexResult lex;
};

class Rule {
 public:
  virtual ~Rule() = default;

  virtual std::string_view id() const = 0;
  virtual std::string_view description() const = 0;

  // Per-file token pass. Default: nothing.
  virtual void CheckFile(const SourceFile& file, std::vector<Finding>* out) const {
    (void)file;
    (void)out;
  }

  // Whole-project pass over every lexed file (sorted by path). Default:
  // nothing.
  virtual void CheckProject(const std::vector<SourceFile>& files,
                            std::vector<Finding>* out) const {
    (void)files;
    (void)out;
  }
};

// The full rule catalog, in stable (documentation) order. Owned statics;
// valid for the program's lifetime.
const std::vector<const Rule*>& AllRules();

// nullptr when no rule has that id. The meta rule id "lint-allow" (malformed
// suppressions) is not in the catalog: it has no Rule object, but is a valid
// id for --rule filtering and suppression validation.
const Rule* FindRule(std::string_view id);

// Every id accepted by --rule= and validated in suppression comments:
// catalog rules plus "lint-allow".
std::vector<std::string> AllRuleIds();

inline constexpr std::string_view kLintAllowRuleId = "lint-allow";

}  // namespace lint
}  // namespace aegaeon

#endif  // AEGAEON_LINT_RULE_H_
