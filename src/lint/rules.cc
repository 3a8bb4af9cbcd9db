// The token-level rule catalog. Each rule protects a piece of the
// simulator's determinism contract — bit-identical output for identical
// (config, trace, seed) — or the threaded executors' discipline; the rule ↔
// invariant map lives in DESIGN.md §11.

#include "lint/rule.h"

#include <array>
#include <string>

#include "lint/include_graph.h"

namespace aegaeon {
namespace lint {

namespace {

const Token* TokenAt(const std::vector<Token>& tokens, size_t i, int delta) {
  if (delta < 0 && i < static_cast<size_t>(-delta)) {
    return nullptr;
  }
  size_t j = i + static_cast<size_t>(delta);
  return j < tokens.size() ? &tokens[j] : nullptr;
}

bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

bool IsIdent(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kIdentifier && t->text == text;
}

// tokens[i] is qualified as `qual::tokens[i]`.
bool QualifiedBy(const std::vector<Token>& tokens, size_t i, std::string_view qual) {
  return IsPunct(TokenAt(tokens, i, -1), "::") && IsIdent(TokenAt(tokens, i, -2), qual);
}

// A free-function call: tokens[i] followed by '(' and not reached through
// `.`, `->`, or `::` (member or qualified name).
bool IsBareCall(const std::vector<Token>& tokens, size_t i) {
  if (!IsPunct(TokenAt(tokens, i, 1), "(")) {
    return false;
  }
  const Token* prev = TokenAt(tokens, i, -1);
  return !(IsPunct(prev, ".") || IsPunct(prev, "->") || IsPunct(prev, "::"));
}

void Add(std::vector<Finding>* out, const Rule& rule, const SourceFile& file, const Token& at,
         std::string message) {
  out->push_back(Finding{std::string(rule.id()), file.path, at.line, at.col, std::move(message)});
}

// --- unordered-container ---------------------------------------------------

class UnorderedContainerRule : public Rule {
 public:
  std::string_view id() const override { return "unordered-container"; }
  std::string_view description() const override {
    return "std::unordered_{map,set,...} — hash iteration order is implementation-defined; "
           "anything iterating one on a scheduling, eviction, or accounting path diverges "
           "across platforms. Use std::map, sorted vectors, or dense arrays.";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    static constexpr std::array<std::string_view, 4> kNames = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    const std::vector<Token>& t = file.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) {
        continue;
      }
      for (std::string_view name : kNames) {
        if (t[i].text == name && QualifiedBy(t, i, "std")) {
          Add(out, *this, file, t[i],
              "std::" + t[i].text +
                  ": hash iteration order is not deterministic; use std::map / sorted "
                  "vectors / dense arrays");
        }
      }
    }
  }
};

// --- wall-clock ------------------------------------------------------------

class WallClockRule : public Rule {
 public:
  std::string_view id() const override { return "wall-clock"; }
  std::string_view description() const override {
    return "wall-clock reads (std::chrono::{system,steady,high_resolution}_clock, time(), "
           "gettimeofday()) — simulated time must come from the event queue.";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    static constexpr std::array<std::string_view, 3> kClocks = {"system_clock", "steady_clock",
                                                                "high_resolution_clock"};
    const std::vector<Token>& t = file.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) {
        continue;
      }
      for (std::string_view clock : kClocks) {
        if (t[i].text == clock && QualifiedBy(t, i, "chrono")) {
          Add(out, *this, file, t[i],
              "std::chrono::" + t[i].text +
                  ": wall-clock read; simulated time must come from the event queue");
        }
      }
      if ((t[i].text == "time" || t[i].text == "gettimeofday") && IsBareCall(t, i)) {
        Add(out, *this, file, t[i],
            t[i].text + "(): wall-clock read; simulated time must come from the event queue");
      }
    }
  }
};

// --- bare-rand -------------------------------------------------------------

class BareRandRule : public Rule {
 public:
  std::string_view id() const override { return "bare-rand"; }
  std::string_view description() const override {
    return "bare rand()/srand() — global PRNG state; all randomness must flow through the "
           "seeded, engine-stable generators in sim/random.h.";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    const std::vector<Token>& t = file.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == TokenKind::kIdentifier && (t[i].text == "rand" || t[i].text == "srand") &&
          IsBareCall(t, i)) {
        Add(out, *this, file, t[i],
            t[i].text + "(): global PRNG; use the seeded engines in sim/random.h");
      }
    }
  }
};

// --- thread-local ----------------------------------------------------------

class ThreadLocalRule : public Rule {
 public:
  std::string_view id() const override { return "thread-local"; }
  std::string_view description() const override {
    return "thread_local state — sharded execution moves cells across pool threads between "
           "epochs, silently decoupling per-thread state from the simulated entity it belongs "
           "to. Scope state to the cell (see simsan::ScopedInstance).";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    for (const Token& tok : file.lex.tokens) {
      if (tok.kind == TokenKind::kIdentifier && tok.text == "thread_local") {
        Add(out, *this, file, tok,
            "thread_local: sharded execution moves work across threads; scope state to the "
            "simulated entity instead (see simsan::ScopedInstance)");
      }
    }
  }
};

// --- pointer-keyed-container -----------------------------------------------

class PointerKeyedContainerRule : public Rule {
 public:
  std::string_view id() const override { return "pointer-keyed-container"; }
  std::string_view description() const override {
    return "std::map<T*,...> / std::set<T*> — ordered containers keyed on pointers iterate in "
           "address order, which differs run to run: silent cross-run nondeterminism the "
           "moment anything iterates them. Key on a stable id instead.";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    static constexpr std::array<std::string_view, 4> kNames = {"map", "set", "multimap",
                                                               "multiset"};
    const std::vector<Token>& t = file.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier || !QualifiedBy(t, i, "std")) {
        continue;
      }
      bool named = false;
      for (std::string_view name : kNames) {
        named = named || t[i].text == name;
      }
      if (!named || !IsPunct(TokenAt(t, i, 1), "<")) {
        continue;
      }
      if (FirstTemplateArgIsPointer(t, i + 2)) {
        Add(out, *this, file, t[i],
            "std::" + t[i].text +
                " keyed on a pointer iterates in address order (differs run to run); key on "
                "a stable id instead");
      }
    }
  }

 private:
  // Scans the first template argument starting at tokens[begin] (just past
  // the opening '<') and reports whether its last token is '*'.
  static bool FirstTemplateArgIsPointer(const std::vector<Token>& t, size_t begin) {
    int depth = 1;  // template brackets
    int parens = 0;
    const Token* last = nullptr;
    for (size_t i = begin; i < t.size(); ++i) {
      const Token& tok = t[i];
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "(") {
          ++parens;
        } else if (tok.text == ")") {
          --parens;
        } else if (parens == 0) {
          if (tok.text == "<") {
            ++depth;
          } else if (tok.text == ">") {
            --depth;
          } else if (tok.text == ">>") {
            depth -= 2;
          } else if (tok.text == "," && depth == 1) {
            break;  // end of the first template argument
          } else if (tok.text == ";" || tok.text == "{") {
            return false;  // not a template argument list after all
          }
        }
        if (depth <= 0) {
          break;  // `std::set<T*>`: the whole list is the first argument
        }
      }
      last = &tok;
    }
    return IsPunct(last, "*");
  }
};

// --- float-equality --------------------------------------------------------

class FloatEqualityRule : public Rule {
 public:
  std::string_view id() const override { return "float-equality"; }
  std::string_view description() const override {
    return "== / != against a floating-point literal — exact float comparison is almost "
           "always a rounding bug on accounting paths; compare against a tolerance, or "
           "suppress with a justification when the value is an exact sentinel.";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    const std::vector<Token>& t = file.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kPunct || (t[i].text != "==" && t[i].text != "!=")) {
        continue;
      }
      const Token* prev = TokenAt(t, i, -1);
      const Token* next = TokenAt(t, i, 1);
      const bool prev_float = prev != nullptr && prev->kind == TokenKind::kNumber && prev->is_float;
      const bool next_float = next != nullptr && next->kind == TokenKind::kNumber && next->is_float;
      if (prev_float || next_float) {
        const Token& lit = prev_float ? *prev : *next;
        Add(out, *this, file, t[i],
            "exact floating-point " + t[i].text + " against " + lit.text +
                "; compare with a tolerance or justify the exact-sentinel semantics");
      }
    }
  }
};

// --- thread-sleep ----------------------------------------------------------

class ThreadSleepRule : public Rule {
 public:
  std::string_view id() const override { return "thread-sleep"; }
  std::string_view description() const override {
    return "std::this_thread::sleep_* (or usleep/nanosleep) anywhere — sleeping hides "
           "ordering bugs and stalls the conservative-sync barrier; workers park on a "
           "condition variable instead.";
  }
  void CheckFile(const SourceFile& file, std::vector<Finding>* out) const override {
    const std::vector<Token>& t = file.lex.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) {
        continue;
      }
      if (t[i].text == "sleep_for" || t[i].text == "sleep_until") {
        Add(out, *this, file, t[i],
            t[i].text + ": sleeping stalls the sync barrier; park on a condition variable "
                        "or use simulated time");
      } else if ((t[i].text == "usleep" || t[i].text == "nanosleep" || t[i].text == "sleep") &&
                 IsBareCall(t, i)) {
        Add(out, *this, file, t[i],
            t[i].text + "(): sleeping stalls the sync barrier; park on a condition variable "
                        "or use simulated time");
      }
    }
  }
};

}  // namespace

const std::vector<const Rule*>& AllRules() {
  static const UnorderedContainerRule unordered;
  static const WallClockRule wall_clock;
  static const BareRandRule bare_rand;
  static const ThreadLocalRule thread_local_rule;
  static const PointerKeyedContainerRule pointer_keyed;
  static const FloatEqualityRule float_eq;
  static const ThreadSleepRule sleep;
  static const IncludeCycleRule include_cycle;
  static const IncludeGuardRule include_guard;
  static const std::vector<const Rule*> kAll = {
      &unordered,     &wall_clock, &bare_rand,     &thread_local_rule, &pointer_keyed,
      &float_eq,      &sleep,      &include_cycle, &include_guard,
  };
  return kAll;
}

const Rule* FindRule(std::string_view id) {
  for (const Rule* rule : AllRules()) {
    if (rule->id() == id) {
      return rule;
    }
  }
  return nullptr;
}

std::vector<std::string> AllRuleIds() {
  std::vector<std::string> ids;
  for (const Rule* rule : AllRules()) {
    ids.emplace_back(rule->id());
  }
  ids.emplace_back(kLintAllowRuleId);
  return ids;
}

}  // namespace lint
}  // namespace aegaeon
