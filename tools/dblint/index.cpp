#include "index.hpp"

#include <algorithm>

namespace dblint {
namespace {

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",      "for",     "while",    "switch",   "catch",    "return",
      "sizeof",  "alignof", "decltype", "throw",    "new",      "delete",
      "else",    "do",      "case",     "default",  "using",    "typedef",
      "template","typename","operator", "noexcept", "static_assert",
      "alignas", "co_await","co_return","co_yield", "requires", "assert"};
  return kKeywords.count(s) > 0;
}

bool is_decl_qualifier(const std::string& s) {
  static const std::set<std::string> kQualifiers = {
      "const", "static", "constexpr", "inline", "mutable",
      "volatile", "thread_local", "struct", "class", "typename"};
  return kQualifiers.count(s) > 0;
}

/// Index of the token matching tokens[open] (an `open_text` delimiter), or
/// npos. Counts only its own delimiter kind, so mixed nesting is fine.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open,
                          const std::string& open_text, const std::string& close_text) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == open_text) ++depth;
    if (tokens[i].text == close_text && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Skips template arguments starting at tokens[open] == "<"; returns the
/// index just past the closing '>', treating '>>' as two closers. npos on
/// a runaway (not actually template args, e.g. a comparison).
std::size_t skip_template_args(const std::vector<Token>& tokens, std::size_t open) {
  int depth = 0;
  const std::size_t limit = std::min(tokens.size(), open + 64);
  for (std::size_t i = open; i < limit; ++i) {
    const std::string& t = tokens[i].text;
    if (t == "<") ++depth;
    if (t == "<=" || t == ">=" || t == ";" || t == "{") return std::string::npos;
    if (t == ">" && --depth == 0) return i + 1;
    if (t == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
  }
  return std::string::npos;
}

/// Records every name declared (or defined) with a Status / Result<...>
/// return type: `Status f(`, `Status Cls::f(`, `Result<T> g(`, including
/// `static Status OK(`.
void collect_status_signatures(const std::vector<Token>& tokens,
                               std::set<std::string>* out) {
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!tokens[i].is_ident) continue;
    std::size_t j;
    if (tokens[i].text == "Status") {
      j = i + 1;
    } else if (tokens[i].text == "Result" && tokens[i + 1].text == "<") {
      j = skip_template_args(tokens, i + 1);
      if (j == std::string::npos) continue;
    } else {
      continue;
    }
    if (j >= tokens.size() || !tokens[j].is_ident) continue;
    // Skip a Cls::...:: qualifier chain to the final name.
    while (j + 2 < tokens.size() && tokens[j + 1].text == "::" && tokens[j + 2].is_ident) {
      j += 2;
    }
    if (j + 1 < tokens.size() && tokens[j + 1].text == "(" && !is_keyword(tokens[j].text)) {
      out->insert(tokens[j].text);
    }
  }
}

const std::set<std::string>& guard_types() {
  static const std::set<std::string> kGuards = {"lock_guard", "scoped_lock",
                                                "unique_lock", "shared_lock"};
  return kGuards;
}

/// Container / atomic methods that mutate their receiver: the chain head of
/// `pool_.push_back(x)` is a WRITE of pool_, while `entries_.find(k)` reads.
bool is_mutating_method(const std::string& callee) {
  static const std::set<std::string> kMutating = {
      "push_back", "pop_back",  "push_front", "pop_front", "emplace",
      "emplace_back", "emplace_front", "insert", "erase",  "clear",
      "resize",    "reserve",   "assign",     "push",      "pop",
      "store",     "fetch_add", "fetch_sub",  "exchange",  "swap",
      "reset",     "merge"};
  return kMutating.count(callee) > 0;
}

/// Field names whose '_'-segments spell a synchronization object — the
/// mutexes/cvs themselves are lock NODES, not guarded data, so accesses to
/// them are not member-field accesses for the race analyzer.
bool is_sync_named(const std::string& name) {
  static const std::set<std::string> kSync = {"mutex", "mu", "cv", "lock",
                                              "latch", "cond"};
  return kSync.count(last_segment(name)) > 0;
}

/// Normalizes one guard-constructor argument (a token slice) into a mutex
/// name: "mutex_" -> "mutex_", "other . mutex_" -> "other.mutex_". Member
/// mutexes (single trailing-underscore identifier) are qualified with the
/// enclosing class so KvStore::mutex_ and DocStore::mutex_ stay distinct
/// nodes in the lock-order graph. Lock tags (std::adopt_lock etc.) and
/// non-name expressions return empty.
std::string normalize_mutex(const std::vector<Token>& tokens, std::size_t begin,
                            std::size_t end, const std::string& class_name) {
  std::string name;
  std::size_t ident_count = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::string& t = tokens[i].text;
    if (t == "this" || t == "*" || t == "&") continue;
    if (t == "." || t == "->" || t == "::") {
      if (!name.empty()) name += (t == "::") ? "::" : ".";
      continue;
    }
    if (!tokens[i].is_ident) return {};  // expression, not a name
    name += t;
    ++ident_count;
  }
  if (name.empty()) return {};
  if (ends_with(name, "_lock")) return {};  // std::adopt_lock / defer_lock tags
  if (ident_count == 1 && ends_with(name, "_") && !class_name.empty()) {
    return class_name + "::" + name;
  }
  return name;
}

/// Collects the identifiers inside each top-level argument of a call whose
/// '(' sits at `open` and matching ')' at `close`.
std::vector<std::vector<std::string>> collect_call_args(
    const std::vector<Token>& tokens, std::size_t open, std::size_t close) {
  std::vector<std::vector<std::string>> args;
  if (close <= open + 1) return args;  // zero-arg call
  std::vector<std::string> current;
  int nest = 0;
  for (std::size_t k = open + 1; k < close; ++k) {
    const std::string& t = tokens[k].text;
    if (t == "(" || t == "{" || t == "[") ++nest;
    if (t == ")" || t == "}" || t == "]") --nest;
    if (t == "," && nest == 0) {
      args.push_back(std::move(current));
      current.clear();
      continue;
    }
    if (tokens[k].is_ident && !is_keyword(t)) current.push_back(t);
  }
  args.push_back(std::move(current));
  return args;
}

/// The active lockset as a sorted, deduplicated snapshot — recorded into
/// `lockset_changes` whenever a guard is constructed, lock()ed, unlock()ed
/// or popped, so the statement scanner can query the set at any token.
struct OpenGuard {
  std::size_t depth;
  std::vector<std::string> mutexes;
  std::string var;  // guard variable name
  bool active;      // false between defer_lock construction and .lock()
};

std::vector<std::string> active_lockset(const std::vector<OpenGuard>& guards) {
  std::set<std::string> held;
  for (const OpenGuard& g : guards) {
    if (g.active) held.insert(g.mutexes.begin(), g.mutexes.end());
  }
  return {held.begin(), held.end()};
}

using LocksetChanges = std::vector<std::pair<std::size_t, std::vector<std::string>>>;

/// Lockset in effect at token index `at` (last change with index <= at).
const std::vector<std::string>& lockset_at(const LocksetChanges& changes,
                                           std::size_t at) {
  static const std::vector<std::string> kNone;
  const std::vector<std::string>* cur = &kNone;
  for (const auto& [idx, set] : changes) {
    if (idx > at) break;
    cur = &set;
  }
  return *cur;
}

/// Walks one function body: brace depth, guard scopes (with held-before
/// edges), and call sites with discard classification, argument identifier
/// lists, and the mutexes held at each site. `call_tokens` receives the
/// callee-token index of each recorded call (parallel to fn->calls) so the
/// statement scanner can map calls into statements. `lockset_changes`
/// receives (token index, active lockset) snapshots.
///
/// Guard tracking understands the unique_lock life cycle: a defer_lock
/// construction holds nothing until `.lock()` on the guard variable, an
/// explicit `.unlock()` releases mid-scope, and adopt_lock / try_to_lock
/// count as held from construction (try_to_lock over-approximates the
/// success branch). `.lock()`/`.unlock()` on a known guard VARIABLE is
/// lockset bookkeeping, not a raw-mutex call, so it is not recorded as a
/// call site (R7 only flags raw locking of the mutex itself).
void scan_body(const std::vector<Token>& tokens, std::size_t body_begin,
               std::size_t body_end, FunctionInfo* fn,
               std::vector<std::size_t>* call_tokens,
               LocksetChanges* lockset_changes) {
  std::vector<OpenGuard> open_guards;
  std::size_t depth = 0;

  for (std::size_t i = body_begin; i <= body_end; ++i) {
    const Token& t = tokens[i];
    if (t.text == "{") {
      ++depth;
      continue;
    }
    if (t.text == "}") {
      --depth;
      bool released = false;
      while (!open_guards.empty() && open_guards.back().depth > depth) {
        released = released || open_guards.back().active;
        open_guards.pop_back();
      }
      if (released) lockset_changes->push_back({i, active_lockset(open_guards)});
      continue;
    }

    // --- RAII guard acquisition ------------------------------------------
    if (t.is_ident && guard_types().count(t.text) > 0) {
      std::size_t j = i + 1;
      if (j < body_end && tokens[j].text == "<") {
        const std::size_t past = skip_template_args(tokens, j);
        if (past == std::string::npos) continue;
        j = past;
      }
      if (j + 1 >= body_end || !tokens[j].is_ident || tokens[j + 1].text != "(") {
        continue;  // e.g. a mention in a type alias — no acquisition
      }
      const std::size_t close = match_forward(tokens, j + 1, "(", ")");
      if (close == std::string::npos || close > body_end) continue;

      GuardSite guard;
      guard.line_index = t.line_index;
      guard.depth = depth;
      guard.var = tokens[j].text;
      bool deferred = false;
      std::size_t arg_begin = j + 2;
      int nest = 0;
      for (std::size_t k = j + 2; k <= close; ++k) {
        const std::string& kt = tokens[k].text;
        if (kt == "(" || kt == "{") ++nest;
        if (kt == ")" || kt == "}") --nest;
        if (kt == "defer_lock") deferred = true;  // held only after .lock()
        if ((kt == "," && nest == 0) || k == close) {
          const std::string m =
              normalize_mutex(tokens, arg_begin, k, fn->class_name);
          if (!m.empty()) guard.mutexes.push_back(m);
          arg_begin = k + 1;
        }
      }
      if (!guard.mutexes.empty()) {
        if (!deferred) {
          for (const OpenGuard& held : open_guards) {
            if (!held.active) continue;
            for (const std::string& from : held.mutexes) {
              for (const std::string& to : guard.mutexes) {
                fn->lock_edges.push_back({from, to, t.line_index});
              }
            }
          }
        }
        open_guards.push_back({depth, guard.mutexes, guard.var, !deferred});
        if (!deferred) {
          lockset_changes->push_back({close, active_lockset(open_guards)});
        }
        fn->guards.push_back(std::move(guard));
      }
      i = close;
      continue;
    }

    // --- guard-variable lock()/unlock(): lockset bookkeeping --------------
    if (t.text == "(" && i >= body_begin + 3 && tokens[i - 1].is_ident &&
        (tokens[i - 1].text == "lock" || tokens[i - 1].text == "unlock" ||
         tokens[i - 1].text == "try_lock") &&
        (tokens[i - 2].text == "." || tokens[i - 2].text == "->") &&
        tokens[i - 3].is_ident) {
      OpenGuard* target = nullptr;
      for (auto it = open_guards.rbegin(); it != open_guards.rend(); ++it) {
        if (it->var == tokens[i - 3].text) {
          target = &*it;
          break;
        }
      }
      if (target != nullptr) {
        const std::size_t close = match_forward(tokens, i, "(", ")");
        if (close == std::string::npos || close > body_end) continue;
        const bool acquire = tokens[i - 1].text != "unlock";
        if (acquire && !target->active) {
          for (const OpenGuard& held : open_guards) {
            if (!held.active) continue;
            for (const std::string& from : held.mutexes) {
              for (const std::string& to : target->mutexes) {
                fn->lock_edges.push_back({from, to, tokens[i - 1].line_index});
              }
            }
          }
        }
        if (target->active != acquire) {
          target->active = acquire;
          lockset_changes->push_back({close, active_lockset(open_guards)});
        }
        i = close;
        continue;
      }
      // Not a guard variable: fall through — a raw .lock() on the mutex
      // itself is a recorded call site (and an R7 finding).
    }

    // --- call sites -------------------------------------------------------
    if (t.text == "(" && i > body_begin && tokens[i - 1].is_ident &&
        !is_keyword(tokens[i - 1].text)) {
      const std::size_t close = match_forward(tokens, i, "(", ")");
      if (close == std::string::npos || close > body_end) continue;

      CallSite call;
      call.callee = tokens[i - 1].text;
      call.line_index = tokens[i - 1].line_index;
      call.args = collect_call_args(tokens, i, close);
      for (const OpenGuard& held : open_guards) {
        if (!held.active) continue;
        call.held_mutexes.insert(call.held_mutexes.end(), held.mutexes.begin(),
                                 held.mutexes.end());
      }

      // Walk the member chain back to its head: `store_.sub().sync(` is
      // approximated by stepping over `ident . ident` pairs.
      std::size_t h = i - 1;
      call.member_call = h > body_begin && (tokens[h - 1].text == "." ||
                                            tokens[h - 1].text == "->");
      while (h >= body_begin + 2 &&
             (tokens[h - 1].text == "." || tokens[h - 1].text == "->" ||
              tokens[h - 1].text == "::") &&
             tokens[h - 2].is_ident) {
        h -= 2;
      }
      call.chain_head = tokens[h].text;

      // Discarded iff the call chain IS the whole expression statement:
      // terminated by ';' and preceded by a statement boundary. A `)`
      // boundary covers `if (...) chain.f();` — still a discard — while a
      // preceding `(void)` cast marks the discard deliberate.
      if (close + 1 <= body_end && tokens[close + 1].text == ";") {
        const std::size_t p = h - 1;  // h > body_begin always (body '{' first)
        const std::string& pt = tokens[p].text;
        if (pt == ";" || pt == "{" || pt == "}" || pt == ")" || pt == "else") {
          call.result_discarded = true;
          if (pt == ")" && p >= 2 && tokens[p - 1].text == "void" &&
              tokens[p - 2].text == "(") {
            call.void_cast = true;
          }
        }
      }
      call_tokens->push_back(i - 1);
      fn->calls.push_back(std::move(call));
      continue;
    }
  }
}

/// Resolves the written lvalue left of the '=' at token `eq`: walks back
/// over a subscript, then over a `.`/`->`/`::` chain to its HEAD, so
/// `entry.wire = x` writes `entry` and `cache_[k] = x` writes `cache_`.
std::string lvalue_head(const std::vector<Token>& tokens, std::size_t begin,
                        std::size_t eq) {
  if (eq == begin) return {};
  std::size_t p = eq - 1;
  // Compound assignment: `buf += x` tokenizes as '+' '='.
  static const std::set<std::string> kCompound = {"+", "-", "*", "/", "%",
                                                  "&", "|", "^", "<<", ">>"};
  if (kCompound.count(tokens[p].text) > 0) {
    if (p == begin) return {};
    --p;
  }
  if (tokens[p].text == "]") {
    int depth = 1;
    while (p > begin && depth > 0) {
      --p;
      if (tokens[p].text == "]") ++depth;
      if (tokens[p].text == "[") --depth;
    }
    if (p == begin) return {};
    --p;
  }
  while (p >= begin + 2 &&
         (tokens[p - 1].text == "." || tokens[p - 1].text == "->" ||
          tokens[p - 1].text == "::") &&
         tokens[p - 2].is_ident) {
    p -= 2;
  }
  return tokens[p].is_ident ? tokens[p].text : std::string{};
}

/// Token index of the lvalue chain HEAD left of the '=' at `eq` (the same
/// walk as lvalue_head, but positional): the field-access extractor marks
/// exactly that chain as the statement's write.
std::size_t lvalue_chain_start(const std::vector<Token>& tokens, std::size_t begin,
                               std::size_t eq) {
  if (eq == begin) return std::string::npos;
  std::size_t p = eq - 1;
  static const std::set<std::string> kCompound = {"+", "-", "*", "/", "%",
                                                  "&", "|", "^", "<<", ">>"};
  if (kCompound.count(tokens[p].text) > 0) {
    if (p == begin) return std::string::npos;
    --p;
  }
  if (tokens[p].text == "]") {
    int depth = 1;
    while (p > begin && depth > 0) {
      --p;
      if (tokens[p].text == "]") ++depth;
      if (tokens[p].text == "[") --depth;
    }
    if (p == begin) return std::string::npos;
    --p;
  }
  while (p >= begin + 2 &&
         (tokens[p - 1].text == "." || tokens[p - 1].text == "->" ||
          tokens[p - 1].text == "::") &&
         tokens[p - 2].is_ident) {
    p -= 2;
  }
  return tokens[p].is_ident ? p : std::string::npos;
}

bool file_declares_field(const std::vector<FieldDecl>& fields,
                         const std::string& class_name, const std::string& name) {
  for (const FieldDecl& fd : fields) {
    if (fd.name != name) continue;
    if (class_name.empty() || fd.class_name == class_name) return true;
  }
  return false;
}

/// Extracts the member-field accesses of one statement fragment: walks the
/// `a.b->c_` chains, resolves each to a class-scoped (`Class::f_`) or
/// object-qualified (`obj.f_`) field key, classifies read vs write (lvalue
/// chain of '=', ++/--, mutating container/atomic methods), and attaches
/// the lockset active at the access token. Guard-construction fragments are
/// skipped by the caller; mutex/cv-named members are lock nodes, not data.
void extract_field_accesses(const std::vector<Token>& tokens, std::size_t frag_begin,
                            std::size_t frag_end, std::size_t eq,
                            std::size_t decl_ident, FunctionInfo* fn,
                            const std::vector<FieldDecl>& fields,
                            const LocksetChanges& lockset_changes) {
  const std::size_t write_head =
      (eq != std::string::npos) ? lvalue_chain_start(tokens, frag_begin, eq)
                                : std::string::npos;
  for (std::size_t k = frag_begin; k < frag_end; ++k) {
    if (!tokens[k].is_ident || is_keyword(tokens[k].text)) continue;
    if (k == decl_ident) continue;  // a declared LOCAL, not a field
    // Only chain heads: members reached through '.'/'->' are handled as part
    // of the chain; '::'-qualified names are types/statics, not accesses.
    if (k > frag_begin &&
        (tokens[k - 1].text == "." || tokens[k - 1].text == "->" ||
         tokens[k - 1].text == "::")) {
      continue;
    }
    // Walk the chain forward.
    std::vector<std::size_t> segs{k};
    std::size_t p = k;
    while (p + 2 < frag_end &&
           (tokens[p + 1].text == "." || tokens[p + 1].text == "->") &&
           tokens[p + 2].is_ident) {
      p += 2;
      segs.push_back(p);
    }
    std::string method;
    if (p + 1 < frag_end && tokens[p + 1].text == "(" && segs.size() > 1) {
      method = tokens[segs.back()].text;  // trailing member call
      segs.pop_back();
    }

    // Resolve the chain to a field key.
    const std::string& head = tokens[segs[0]].text;
    std::string key;
    std::string member;
    if (head == "this") {
      if (segs.size() < 2 || fn->class_name.empty()) continue;
      member = tokens[segs[1]].text;
      key = fn->class_name + "::" + member;
    } else if (!fn->class_name.empty() &&
               (ends_with(head, "_") ||
                file_declares_field(fields, fn->class_name, head))) {
      member = head;
      key = fn->class_name + "::" + head;
    } else if (segs.size() >= 2) {
      member = tokens[segs[1]].text;
      if (!ends_with(member, "_") && !file_declares_field(fields, {}, member)) {
        continue;
      }
      key = head + "." + member;
    } else {
      continue;
    }
    if (is_sync_named(member)) continue;

    FieldAccess access;
    access.field = key;
    access.line_index = tokens[segs[0]].line_index;
    // ++/-- tokenize as two single-char operators; check both sides.
    const bool prefix_incdec =
        segs[0] >= frag_begin + 2 &&
        (tokens[segs[0] - 1].text == "+" || tokens[segs[0] - 1].text == "-") &&
        tokens[segs[0] - 2].text == tokens[segs[0] - 1].text;
    const bool postfix_incdec =
        p + 2 < frag_end &&
        (tokens[p + 1].text == "+" || tokens[p + 1].text == "-") &&
        tokens[p + 2].text == tokens[p + 1].text;
    access.is_write = (segs[0] == write_head) || prefix_incdec ||
                      postfix_incdec ||
                      (!method.empty() && is_mutating_method(method));
    access.held_mutexes = lockset_at(lockset_changes, segs[0]);
    const bool dup =
        std::any_of(fn->accesses.begin(), fn->accesses.end(),
                    [&](const FieldAccess& a) {
                      return a.field == access.field &&
                             a.line_index == access.line_index &&
                             a.is_write == access.is_write &&
                             a.held_mutexes == access.held_mutexes;
                    });
    if (!dup) fn->accesses.push_back(std::move(access));
    k = p;  // chain consumed
  }
}

/// Detects a declaration at the start of a statement fragment. On success
/// sets decl_type (LAST segment of the type chain: `std::string` ->
/// "string", `SecretBytes` -> "SecretBytes") and returns the token index of
/// the declared identifier; npos otherwise.
std::size_t detect_declaration(const std::vector<Token>& tokens, std::size_t begin,
                               std::size_t end, std::string* decl_type) {
  std::size_t i = begin;
  while (i < end && tokens[i].is_ident && is_decl_qualifier(tokens[i].text)) ++i;
  if (i >= end || !tokens[i].is_ident || is_keyword(tokens[i].text)) return std::string::npos;
  std::string type = tokens[i].text;
  ++i;
  while (i + 1 < end && tokens[i].text == "::" && tokens[i + 1].is_ident) {
    type = tokens[i + 1].text;
    i += 2;
  }
  if (i < end && tokens[i].text == "<") {
    const std::size_t past = skip_template_args(tokens, i);
    if (past == std::string::npos) return std::string::npos;
    i = past;
  }
  while (i < end && (tokens[i].text == "*" || tokens[i].text == "&" ||
                     tokens[i].text == "&&" || tokens[i].text == "const")) {
    ++i;
  }
  if (i >= end || !tokens[i].is_ident || is_keyword(tokens[i].text)) return std::string::npos;
  // The declared name must be followed by an initializer or terminator —
  // `foo (x)` is a call, `Bytes x(...)` / `Bytes x = ...` / `Bytes x;` are
  // declarations (the fragment end doubles as the ';' / '{' boundary).
  if (i + 1 < end) {
    const std::string& nx = tokens[i + 1].text;
    if (nx != "=" && nx != "(" && nx != "{" && nx != "," && nx != "[") {
      return std::string::npos;
    }
  }
  *decl_type = type;
  return i;
}

/// Splits the body into statement fragments (boundaries: ';', '{', '}') and
/// computes per-fragment flow facts. `call_tokens` maps fn->calls entries to
/// their callee-token index; `lockset_changes` is scan_body's guard-state
/// trail, queried for the lockset at each fragment and field access.
void scan_statements(const std::vector<Token>& tokens, std::size_t body_begin,
                     std::size_t body_end, FunctionInfo* fn,
                     const std::vector<std::size_t>& call_tokens,
                     const std::vector<FieldDecl>& fields,
                     const LocksetChanges& lockset_changes) {
  std::size_t frag_begin = body_begin + 1;
  for (std::size_t i = body_begin + 1; i <= body_end; ++i) {
    const std::string& t = tokens[i].text;
    if (t != ";" && t != "{" && t != "}" && i != body_end) continue;
    const std::size_t frag_end = i;  // exclusive
    if (frag_end > frag_begin) {
      Statement stmt;
      stmt.line_index = tokens[frag_begin].line_index;
      stmt.held_mutexes = lockset_at(lockset_changes, frag_begin);

      int depth = 0;
      std::size_t eq = std::string::npos;
      bool is_guard_stmt = false;
      for (std::size_t k = frag_begin; k < frag_end; ++k) {
        const std::string& kt = tokens[k].text;
        if (kt == "(" || kt == "[") ++depth;
        if (kt == ")" || kt == "]") --depth;
        if (tokens[k].is_ident && guard_types().count(kt) > 0) is_guard_stmt = true;
        if (depth == 0) {
          if (kt == "return" || kt == "co_return") stmt.is_return = true;
          if (kt == "throw") stmt.is_throw = true;
          if (kt == "=" && eq == std::string::npos) eq = k;
        }
      }

      std::size_t reads_from = frag_begin;
      const std::size_t decl_ident =
          detect_declaration(tokens, frag_begin, frag_end, &stmt.decl_type);
      if (eq != std::string::npos) {
        stmt.write_ident = lvalue_head(tokens, frag_begin, eq);
        reads_from = eq + 1;
      } else if (decl_ident != std::string::npos) {
        stmt.write_ident = tokens[decl_ident].text;
        reads_from = decl_ident + 1;  // ctor-style init: read the arguments
      }
      if (!is_guard_stmt) {
        // Guard constructions name their mutex, which is not a data access.
        extract_field_accesses(tokens, frag_begin, frag_end, eq, decl_ident,
                               fn, fields, lockset_changes);
      }
      for (std::size_t k = reads_from; k < frag_end; ++k) {
        if (!tokens[k].is_ident || is_keyword(tokens[k].text)) continue;
        if (std::find(stmt.read_idents.begin(), stmt.read_idents.end(),
                      tokens[k].text) == stmt.read_idents.end()) {
          stmt.read_idents.push_back(tokens[k].text);
        }
      }
      for (std::size_t c = 0; c < call_tokens.size(); ++c) {
        if (call_tokens[c] >= frag_begin && call_tokens[c] < frag_end) {
          stmt.calls.push_back(c);
        }
      }
      if (!stmt.read_idents.empty() || !stmt.write_ident.empty() ||
          !stmt.calls.empty() || stmt.is_return || stmt.is_throw) {
        fn->stmts.push_back(std::move(stmt));
      }
    }
    frag_begin = i + 1;
  }
}

/// Collects data-member declarations at class scope: walks the token stream
/// tracking class/struct bodies (same discipline as extract_functions), and
/// inside each class records `Type name_;` / `Type name_ = init;` /
/// `Type name_{init};` fragments. Method declarations (`name(` after the
/// identifier), constexpr/static constants, using/typedef/friend lines and
/// access specifiers are skipped.
std::vector<FieldDecl> collect_field_decls(const std::vector<Token>& tokens) {
  std::vector<FieldDecl> fields;
  struct ClassScope {
    std::size_t depth;
    std::string name;
  };
  std::vector<ClassScope> class_stack;
  std::size_t depth = 0;
  std::size_t frag_begin = 0;

  auto consume_fragment = [&](std::size_t frag_end) {
    if (class_stack.empty() || depth != class_stack.back().depth) return;
    std::size_t begin = frag_begin;
    // Skip a leading access specifier (`public :` etc.).
    while (begin + 1 < frag_end &&
           (tokens[begin].text == "public" || tokens[begin].text == "private" ||
            tokens[begin].text == "protected") &&
           tokens[begin + 1].text == ":") {
      begin += 2;
    }
    if (begin >= frag_end) return;
    bool atomic = false;
    for (std::size_t k = begin; k < frag_end; ++k) {
      const std::string& kt = tokens[k].text;
      if (kt == "constexpr" || kt == "static" || kt == "using" ||
          kt == "typedef" || kt == "friend" || kt == "enum") {
        return;
      }
      if (tokens[k].is_ident && kt.compare(0, 6, "atomic") == 0) atomic = true;
    }
    std::string type;
    const std::size_t name_idx = detect_declaration(tokens, begin, frag_end, &type);
    if (name_idx == std::string::npos) return;
    // `name(` at class scope is a method declaration, not a field.
    if (name_idx + 1 < frag_end && tokens[name_idx + 1].text == "(") return;
    static const std::set<std::string> kSyncTypes = {
        "mutex",          "shared_mutex",       "recursive_mutex",
        "timed_mutex",    "recursive_timed_mutex",
        "condition_variable", "condition_variable_any"};
    FieldDecl fd;
    fd.class_name = class_stack.back().name;
    fd.name = tokens[name_idx].text;
    fd.type = type;
    fd.line_index = tokens[name_idx].line_index;
    fd.is_atomic = atomic;
    fd.is_sync = kSyncTypes.count(type) > 0;
    fields.push_back(std::move(fd));
  };

  std::size_t i = 0;
  while (i < tokens.size()) {
    const Token& t = tokens[i];
    // `template <class Name>` declares a parameter, not a class named Name.
    if (t.text == "template" && i + 1 < tokens.size() && tokens[i + 1].text == "<") {
      const std::size_t past = skip_template_args(tokens, i + 1);
      if (past != std::string::npos) {
        i = past;
        continue;
      }
    }
    if (t.is_ident && (t.text == "class" || t.text == "struct") &&
        i + 1 < tokens.size() && tokens[i + 1].is_ident) {
      const std::string name = tokens[i + 1].text;
      std::size_t k = i + 2;
      bool has_body = false;
      while (k < tokens.size() && k < i + 48) {
        if (tokens[k].text == "{") {
          has_body = true;
          break;
        }
        if (tokens[k].text == ";" || tokens[k].text == "(") break;
        ++k;
      }
      if (has_body) {
        class_stack.push_back({depth + 1, name});
        depth += 1;
        i = k + 1;
        frag_begin = i;
        continue;
      }
      i += 2;
      continue;
    }
    if (t.text == "{") {
      consume_fragment(i);  // `Type name_{init};` terminates at its '{'
      ++depth;
      ++i;
      frag_begin = i;
      continue;
    }
    if (t.text == "}") {
      --depth;
      while (!class_stack.empty() && class_stack.back().depth > depth) {
        class_stack.pop_back();
      }
      ++i;
      frag_begin = i;
      continue;
    }
    if (t.text == ";") {
      consume_fragment(i);
      ++i;
      frag_begin = i;
      continue;
    }
    ++i;
  }
  return fields;
}

/// Parses the parameter names out of a definition's `(...)` span.
std::vector<std::string> parse_params(const std::vector<Token>& tokens,
                                      std::size_t open, std::size_t close) {
  std::vector<std::string> params;
  std::size_t chunk_begin = open + 1;
  int nest = 0;
  for (std::size_t k = open + 1; k <= close; ++k) {
    const std::string& t = tokens[k].text;
    if (t == "(" || t == "{" || t == "[" || t == "<") ++nest;
    if (t == ")" || t == "}" || t == "]" || t == ">") --nest;
    const bool at_close = (k == close);
    if ((t == "," && nest == 0) || at_close) {
      // Name = last identifier before a top-level '=' (default argument).
      std::string name;
      int d = 0;
      for (std::size_t p = chunk_begin; p < k; ++p) {
        const std::string& pt = tokens[p].text;
        if (pt == "(" || pt == "{" || pt == "[" || pt == "<") ++d;
        if (pt == ")" || pt == "}" || pt == "]" || pt == ">") --d;
        if (pt == "=" && d == 0) break;
        if (tokens[p].is_ident && !is_keyword(pt)) name = pt;
      }
      if (!name.empty() && name != "void") params.push_back(name);
      chunk_begin = k + 1;
    }
  }
  return params;
}

/// Extracts function definitions from one file's token stream, tracking
/// enclosing class/struct scopes so inline members get a class name.
/// `fields` is the file's class-scope member table (collect_field_decls),
/// consulted by the field-access extractor.
std::vector<FunctionInfo> extract_functions(const std::vector<Token>& tokens,
                                            const std::vector<FieldDecl>& fields) {
  std::vector<FunctionInfo> functions;
  struct ClassScope {
    std::size_t depth;  // brace depth INSIDE the class body
    std::string name;
  };
  std::vector<ClassScope> class_stack;
  std::size_t depth = 0;

  std::size_t i = 0;
  while (i < tokens.size()) {
    const Token& t = tokens[i];
    if (t.text == "{") {
      ++depth;
      ++i;
      continue;
    }
    if (t.text == "}") {
      --depth;
      while (!class_stack.empty() && class_stack.back().depth > depth) {
        class_stack.pop_back();
      }
      ++i;
      continue;
    }

    // class/struct scope entry (skipping forward declarations).
    if (t.is_ident && (t.text == "class" || t.text == "struct") &&
        i + 1 < tokens.size() && tokens[i + 1].is_ident) {
      const std::string name = tokens[i + 1].text;
      std::size_t k = i + 2;
      bool has_body = false;
      while (k < tokens.size() && k < i + 48) {
        if (tokens[k].text == "{") {
          has_body = true;
          break;
        }
        if (tokens[k].text == ";" || tokens[k].text == "(") break;
        ++k;
      }
      if (has_body) {
        class_stack.push_back({depth + 1, name});
        depth += 1;
        i = k + 1;
        continue;
      }
      i += 2;
      continue;
    }

    if (t.text != "(" || i == 0 || !tokens[i - 1].is_ident ||
        is_keyword(tokens[i - 1].text)) {
      ++i;
      continue;
    }

    // Candidate: qualified-name '(' params ')' [qualifiers] '{'.
    std::size_t chain_start = i - 1;
    std::string qualified = tokens[chain_start].text;
    std::string class_name;
    while (chain_start >= 2 && tokens[chain_start - 1].text == "::" &&
           tokens[chain_start - 2].is_ident) {
      if (class_name.empty()) class_name = tokens[chain_start - 2].text;
      qualified = tokens[chain_start - 2].text + "::" + qualified;
      chain_start -= 2;
    }
    if (class_name.empty() && !class_stack.empty()) {
      class_name = class_stack.back().name;
    }

    const std::size_t close = match_forward(tokens, i, "(", ")");
    if (close == std::string::npos) {
      ++i;
      continue;
    }

    // Bridge the gap between ')' and the body '{' — cv-qualifiers,
    // noexcept(...), trailing return, ctor init list. Anything else
    // (';', '=', ',', '.', operators) means "not a definition".
    std::size_t m = close + 1;
    std::size_t body = std::string::npos;
    while (m < tokens.size()) {
      const std::string& mt = tokens[m].text;
      if (mt == "{") {
        body = m;
        break;
      }
      if (mt == "const" || mt == "override" || mt == "final" || mt == "&" ||
          mt == "&&") {
        ++m;
        continue;
      }
      if (mt == "noexcept") {
        ++m;
        if (m < tokens.size() && tokens[m].text == "(") {
          const std::size_t nc = match_forward(tokens, m, "(", ")");
          if (nc == std::string::npos) break;
          m = nc + 1;
        }
        continue;
      }
      if (mt == "->") {  // trailing return type
        ++m;
        while (m < tokens.size() &&
               (tokens[m].is_ident || tokens[m].text == "::" ||
                tokens[m].text == "<" || tokens[m].text == ">" ||
                tokens[m].text == ">>" || tokens[m].text == "*" ||
                tokens[m].text == "&" || tokens[m].text == ",")) {
          ++m;
        }
        continue;
      }
      if (mt == ":") {  // constructor init list
        ++m;
        bool parsed = true;
        while (m < tokens.size()) {
          while (m < tokens.size() &&
                 (tokens[m].is_ident || tokens[m].text == "::")) {
            ++m;
          }
          if (m >= tokens.size() ||
              (tokens[m].text != "(" && tokens[m].text != "{")) {
            parsed = false;
            break;
          }
          const bool paren = tokens[m].text == "(";
          const std::size_t gc = paren ? match_forward(tokens, m, "(", ")")
                                       : match_forward(tokens, m, "{", "}");
          if (gc == std::string::npos) {
            parsed = false;
            break;
          }
          m = gc + 1;
          if (m < tokens.size() && tokens[m].text == ",") {
            ++m;
            continue;
          }
          break;
        }
        if (!parsed) break;
        continue;
      }
      break;
    }

    if (body == std::string::npos) {
      i = close + 1;
      continue;
    }
    const std::size_t body_end = match_forward(tokens, body, "{", "}");
    if (body_end == std::string::npos) {
      i = body + 1;
      ++depth;
      continue;
    }

    FunctionInfo fn;
    fn.name = tokens[i - 1].text;
    fn.qualified = qualified;
    fn.class_name = class_name;
    fn.line_index = tokens[chain_start].line_index;
    fn.params = parse_params(tokens, i, close);
    if (chain_start > 0) {
      const Token& prev = tokens[chain_start - 1];
      if (prev.text == "Status") {
        fn.returns_status = true;
      } else if (prev.text == ">" || prev.text == ">>") {
        // Walk the template args back to their head and check for Result.
        int tdepth = 0;
        std::size_t b = chain_start - 1;
        for (;; --b) {
          const std::string& bt = tokens[b].text;
          if (bt == ">") ++tdepth;
          if (bt == ">>") tdepth += 2;
          if (bt == "<" && --tdepth == 0) break;
          if (b == 0) break;
        }
        if (b >= 1 && tokens[b - 1].text == "Result") fn.returns_status = true;
      }
    }
    std::vector<std::size_t> call_tokens;
    LocksetChanges lockset_changes;
    scan_body(tokens, body, body_end, &fn, &call_tokens, &lockset_changes);
    scan_statements(tokens, body, body_end, &fn, call_tokens, fields,
                    lockset_changes);
    functions.push_back(std::move(fn));
    i = body_end + 1;
  }
  return functions;
}

}  // namespace

FileIndex index_file(const std::string& path, const std::string& content,
                     std::set<std::string>* status_out) {
  FileIndex fi;
  fi.path = path;
  const std::vector<Token> tokens = tokenize(strip_comments_and_strings(content));
  const std::vector<std::string> raw_lines = split_lines(content);
  fi.allows = collect_allows(raw_lines);
  fi.fn_allows = collect_fn_allows(raw_lines);
  fi.fields = collect_field_decls(tokens);
  fi.functions = extract_functions(tokens, fi.fields);
  if (status_out != nullptr) collect_status_signatures(tokens, status_out);

  // `// dblint:thread-root` on (or on the line above) a function definition
  // marks it as a thread entry point for the concurrency analyzer.
  std::set<std::size_t> root_lines;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    if (raw_lines[i].find("dblint:thread-root") != std::string::npos) {
      root_lines.insert(i);
      root_lines.insert(i + 1);
    }
  }
  for (FunctionInfo& fn : fi.functions) {
    if (root_lines.count(fn.line_index) > 0) fn.thread_root = true;
  }
  return fi;
}

RepoIndex build_index(const std::vector<FileInput>& files) {
  RepoIndex index;
  for (const FileInput& f : files) {
    index.files.push_back(index_file(f.path, f.content, &index.status_returning));
  }
  return index;
}

}  // namespace dblint
