// dart-analyze: whole-tree concurrency & determinism checker for the host
// runtime — the src/-side sibling of dart-pipeline-lint. The data-plane
// checker proves a deployment feasible before it compiles; this tool proves
// the host runtime's concurrency discipline before it runs. Both speak the
// same language: stable rule codes, error[CODE]-formatted diagnostics, and
// exit 0/1/2.
//
// Rules (see DESIGN.md section 12 for the invariant each one protects):
//
//   CON001  hot-path atomics must spell out their memory_order (an
//           implicit or explicit seq_cst on the packet path is either a
//           perf bug or an unstated algorithm assumption)
//   CON002  no raw std::thread / detach() outside the sharded runtime's
//           worker management (thread lifetime is ShardedMonitor's job)
//   CON003  no wall-clock reads in deterministic (replay) code — virtual
//           time only, or two runs of one trace stop being comparable
//   CON004  no unordered-container iteration feeding exported or merged
//           output (hash order is not replay-stable)
//   CON005  fields sharing a class with a mutex carry DART_GUARDED_BY (or
//           say why not), so the clang -Wthread-safety build can prove
//           locking instead of trusting it
//   CON006  mutexes are locked through RAII scopes, never bare
//           lock()/unlock() pairs an early return can unbalance
//   CON007  exporter code (the fleet spool publishers) must write through
//           telemetry::write_atomic — a raw ofstream/fopen/fwrite/rename
//           can expose a torn frame to a concurrently scanning collector
//   CON008  no wall-clock reads in collector decision paths — fencing,
//           gap grace, and skew healing are counted in poll attempts, so
//           the same spool always yields the same report; a ::now() (or a
//           deadline wait built on one) smuggles wall time back into the
//           decisions (sleep_for pacing between polls stays legal)
//   CON009  no unbounded blocking socket waits in daemon code — a raw
//           accept/recv/read (or a poll with an infinite timeout) parks
//           the thread until a peer acts, so SIGTERM cannot drain; wait
//           through the daemon::net bounded helpers, which slice the wait
//           and re-check the shutdown flag between slices
//
// The checker is lexical by design: no compiler, no flags, no compile
// database — it runs identically on every developer box and in CI, and the
// rules are chosen to be patterns a token scan can catch with near-zero
// false positives in this codebase. What it cannot see (alias-laundered
// clocks, iterator-based unordered walks) the clang thread-safety build and
// the TSan jobs cover from the other side.
//
// Waivers:
//   * inline  — a comment `con-ok(CODE): reason` on the finding line or on
//     a comment line directly above it;
//   * tree    — `CODE path reason` lines in dart_analyze_waivers.txt at the
//     repo root (loaded in --repo-root mode or via --waivers).
// A waiver that suppresses nothing is itself an error (stale-waiver), so
// fixed code cannot leave silent holes behind — same contract as
// scripts/lint_hotpath.py.
//
// Usage:
//   dart-analyze --repo-root DIR          # scan DIR/src tree-wide
//   dart-analyze [--treat-as CLASS] FILE...  # explicit files (fixtures)
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
// GCC 12 with -fsanitize=address,undefined reports a false
// -Wmaybe-uninitialized inside libstdc++'s <regex> (std_function.h).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <regex>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string code;
  std::string file;
  std::size_t line = 0;
  std::string message;
  bool waived = false;
};

// Which rule families apply to a file. A file can be several things at
// once (src/core is hot-path *and* deterministic *and* export-feeding).
struct FileClass {
  bool hotpath = false;
  bool deterministic = false;
  bool exported = false;
  bool threads_ok = false;
  bool exporter = false;
  bool collector = false;
  bool daemon = false;
};

struct RuleInfo {
  const char* code;
  const char* name;
};

constexpr RuleInfo kRules[] = {
    {"CON001", "hot-path atomic without explicit memory_order"},
    {"CON002", "raw std::thread / detach outside the shard runtime"},
    {"CON003", "wall-clock source in deterministic code"},
    {"CON004", "unordered-container iteration feeding exported output"},
    {"CON005", "mutex-guarded field missing DART_GUARDED_BY"},
    {"CON006", "mutex locked outside an RAII scope"},
    {"CON007", "raw filesystem write in exporter code (use write_atomic)"},
    {"CON008", "wall-clock read in collector decision path"},
    {"CON009", "unbounded blocking socket wait in daemon code"},
};

// ---------------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------------

/// Replaces comments, string/char literals, and preprocessor lines with
/// spaces (newlines preserved), so every rule scans code and only code.
std::string strip_noncode(const std::string& text) {
  std::string out = text;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kPreproc
  };
  State state = State::kCode;
  bool at_line_start = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (at_line_start && c == '#') {
          state = State::kPreproc;
          out[i] = ' ';
        } else if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"' || c == '\n') {
          state = State::kCode;
          if (c == '"') out[i] = ' ';
        } else {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'' || c == '\n') {
          state = State::kCode;
          if (c == '\'') out[i] = ' ';
        } else {
          out[i] = ' ';
        }
        break;
      case State::kPreproc:
        if (c == '\n' && (i == 0 || out[i - 1] != '\\')) {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
    at_line_start = c == '\n';
  }
  return out;
}

std::vector<std::size_t> line_offsets(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

std::size_t line_of(const std::vector<std::size_t>& starts,
                    std::size_t offset) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), offset);
  return static_cast<std::size_t>(it - starts.begin());
}

/// Position of the ')' matching the '(' at `open`, or npos.
std::size_t match_paren(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains_word(const std::string& text, const std::string& word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

struct InlineWaiver {
  std::size_t line = 0;  ///< line the waiver comment sits on
  std::string code;
  bool used = false;
};

struct FileWaivers {
  /// Effective waived codes per finding line (same-line plus comment-lines
  /// directly above, chained through consecutive comment-only lines).
  std::map<std::size_t, std::set<std::string>> effective;
  std::vector<InlineWaiver> waivers;

  void mark_used(std::size_t line, const std::string& code) {
    for (InlineWaiver& w : waivers) {
      // A waiver covers its own line and the code line(s) it chains onto;
      // crediting every matching waiver at or above the finding is fine
      // because `effective` already bounded the reach.
      if (w.code == code && w.line <= line) w.used = true;
    }
  }
};

FileWaivers scan_inline_waivers(const std::string& original,
                                const std::string& stripped) {
  FileWaivers out;
  static const std::regex kWaiver(R"(con-ok\((CON[0-9]{3})\))");
  std::istringstream orig(original);
  std::istringstream bare(stripped);
  std::string oline;
  std::string bline;
  std::size_t lineno = 0;
  std::set<std::string> pending;
  while (std::getline(orig, oline)) {
    std::getline(bare, bline);
    ++lineno;
    std::set<std::string> here;
    for (std::sregex_iterator it(oline.begin(), oline.end(), kWaiver), end;
         it != end; ++it) {
      here.insert((*it)[1].str());
      out.waivers.push_back({lineno, (*it)[1].str(), false});
    }
    const bool code_blank =
        bline.find_first_not_of(" \t\r") == std::string::npos;
    const bool orig_blank =
        oline.find_first_not_of(" \t\r") == std::string::npos;
    if (code_blank && !orig_blank) {
      // Comment-only line: waivers ride forward to the next code line.
      pending.insert(here.begin(), here.end());
    } else {
      here.insert(pending.begin(), pending.end());
      pending.clear();
      if (!here.empty()) out.effective[lineno] = std::move(here);
    }
  }
  return out;
}

struct TreeWaiver {
  std::string code;
  std::string path;
  std::string reason;
  std::size_t line = 0;  ///< line in the waiver file
  bool used = false;
};

bool load_tree_waivers(const fs::path& file, std::vector<TreeWaiver>& out,
                       std::string& error) {
  std::ifstream in(file);
  if (!in) {
    error = "cannot read waiver file " + file.string();
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    TreeWaiver w;
    w.line = lineno;
    fields >> w.code >> w.path;
    std::getline(fields, w.reason);
    const std::size_t start = w.reason.find_first_not_of(" \t");
    w.reason = start == std::string::npos ? "" : w.reason.substr(start);
    if (!std::regex_match(w.code, std::regex(R"(CON[0-9]{3})")) ||
        w.path.empty() || w.reason.empty()) {
      error = file.string() + ":" + std::to_string(lineno) +
              ": expected 'CODE path reason'";
      return false;
    }
    out.push_back(std::move(w));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void check_con001(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  static const std::regex kAtomicOp(
      R"((\.|->)(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kAtomicOp), end;
       it != end; ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position()) + it->length() - 1;
    const std::size_t close = match_paren(code, open);
    const std::string args =
        close == std::string::npos ? "" : code.substr(open, close - open + 1);
    const std::size_t line =
        line_of(lines, static_cast<std::size_t>(it->position()));
    if (args.find("memory_order_") == std::string::npos) {
      findings.push_back(
          {"CON001", file, line,
           "atomic '" + (*it)[2].str() +
               "' without an explicit memory_order (defaults to seq_cst) "
               "on the hot path"});
    } else if (args.find("memory_order_seq_cst") != std::string::npos) {
      findings.push_back({"CON001", file, line,
                          "seq_cst atomic '" + (*it)[2].str() +
                              "' on the hot path; state the required "
                              "ordering instead"});
    }
  }
}

void check_con002(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  static const std::regex kThread(R"(std\s*::\s*thread\b|\bpthread_create\b)");
  static const std::regex kDetach(R"((\.|->)\s*detach\s*\(\s*\))");
  for (std::sregex_iterator it(code.begin(), code.end(), kThread), end;
       it != end; ++it) {
    findings.push_back(
        {"CON002", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "raw thread creation outside the shard runtime; workers belong to "
         "ShardedMonitor"});
  }
  for (std::sregex_iterator it(code.begin(), code.end(), kDetach), end;
       it != end; ++it) {
    findings.push_back(
        {"CON002", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "detach() outside the shard runtime; only ShardedMonitor may "
         "abandon a worker"});
  }
}

void check_con003(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  static const std::regex kClock(
      R"(\b(steady_clock|system_clock|high_resolution_clock|gettimeofday|clock_gettime|timespec_get)\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\))");
  for (std::sregex_iterator it(code.begin(), code.end(), kClock), end;
       it != end; ++it) {
    findings.push_back(
        {"CON003", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "wall-clock source in deterministic code; replay uses virtual "
         "(trace) time only"});
  }
}

/// Names declared with an unordered container type in `code`.
std::set<std::string> collect_unordered_names(const std::string& code) {
  std::set<std::string> names;
  static const std::regex kDecl(R"(\bunordered_(?:multi)?(?:map|set)\s*<)");
  for (std::sregex_iterator it(code.begin(), code.end(), kDecl), end;
       it != end; ++it) {
    std::size_t i = static_cast<std::size_t>(it->position()) + it->length();
    int depth = 1;  // inside the template argument list
    while (i < code.size() && depth > 0) {
      if (code[i] == '<') ++depth;
      if (code[i] == '>') --depth;
      ++i;
    }
    while (i < code.size() && (std::isspace(static_cast<unsigned char>(
                                   code[i])) != 0 ||
                               code[i] == '&' || code[i] == '*')) {
      ++i;
    }
    std::string name;
    while (i < code.size() && is_ident_char(code[i])) name += code[i++];
    if (!name.empty()) names.insert(name);
  }
  return names;
}

void check_con004(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file,
                  const std::set<std::string>& header_names,
                  std::vector<Finding>& findings) {
  std::set<std::string> unordered_names = collect_unordered_names(code);
  unordered_names.insert(header_names.begin(), header_names.end());
  if (unordered_names.empty()) return;

  // Pass 2: range-for loops whose range expression names one of them.
  static const std::regex kFor(R"(\bfor\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kFor), end;
       it != end; ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position()) + it->length() - 1;
    const std::size_t close = match_paren(code, open);
    if (close == std::string::npos) continue;
    const std::string head = code.substr(open + 1, close - open - 1);
    if (head.find(';') != std::string::npos) continue;  // classic for
    const std::size_t colon = head.find(':');
    if (colon == std::string::npos) continue;
    const std::string range = head.substr(colon + 1);
    for (const std::string& name : unordered_names) {
      if (contains_word(range, name)) {
        findings.push_back(
            {"CON004", file,
             line_of(lines, static_cast<std::size_t>(it->position())),
             "iteration over unordered container '" + name +
                 "' in export-feeding code; hash order is not "
                 "replay-stable"});
        break;
      }
    }
  }
}

// Class-body statement, for CON005. Statements are grouped by the brace
// scope they appear in, so "shares a class with a mutex" is literal: same
// group as a mutex-typed member.
struct Statement {
  std::string text;
  std::size_t line = 0;
  int group = 0;
};

std::vector<Statement> split_statements(
    const std::string& code, const std::vector<std::size_t>& lines) {
  std::vector<Statement> out;
  std::vector<int> stack{0};
  int next_group = 0;
  int paren_depth = 0;
  std::string current;
  std::size_t start_offset = 0;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '(') ++paren_depth;
    if (c == ')' && paren_depth > 0) --paren_depth;
    if (c == '{' && paren_depth == 0) {
      stack.push_back(++next_group);
      current.clear();
      continue;
    }
    if (c == '}' && paren_depth == 0) {
      if (stack.size() > 1) stack.pop_back();
      current.clear();
      continue;
    }
    if (c == ';' && paren_depth == 0) {
      const std::size_t first = current.find_first_not_of(" \t\r\n");
      if (first != std::string::npos) {
        out.push_back({current.substr(first),
                       line_of(lines, start_offset + first), stack.back()});
      }
      current.clear();
      continue;
    }
    if (current.empty()) start_offset = i;
    current += c;
  }
  return out;
}

bool is_mutex_decl(const std::string& text) {
  static const std::regex kMutex(
      R"(\b[Mm]utex\s*&?\s+[A-Za-z_]\w*\s*$)");
  return std::regex_search(text, kMutex);
}

void check_con005(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  std::vector<Statement> statements = split_statements(code, lines);
  for (Statement& s : statements) {
    // Access labels glue onto the following statement; drop them.
    static const std::regex kLabel(R"(\b(public|private|protected)\s*:)");
    s.text = std::regex_replace(s.text, kLabel, "");
    const std::size_t first = s.text.find_first_not_of(" \t\r\n");
    s.text = first == std::string::npos ? "" : s.text.substr(first);
  }
  std::set<int> mutex_groups;
  for (const Statement& s : statements) {
    if (s.group != 0 && is_mutex_decl(s.text)) mutex_groups.insert(s.group);
  }
  if (mutex_groups.empty()) return;

  static const std::regex kSkipLead(
      R"(^(mutable\s+)?(const|constexpr|static|using|typedef|friend|enum|struct|class|template|return|namespace)\b)");
  static const std::regex kMemberShape(
      R"(^[\w:<>,\s&*\[\]]+\s[A-Za-z_]\w*\s*$)");
  for (const Statement& s : statements) {
    if (mutex_groups.count(s.group) == 0 || s.text.empty()) continue;
    if (s.text.find("DART_GUARDED_BY") != std::string::npos) continue;
    if (s.text.find("DART_PT_GUARDED_BY") != std::string::npos) continue;
    if (is_mutex_decl(s.text)) continue;
    if (s.text.find("condition_variable") != std::string::npos) continue;
    if (s.text.find("atomic") != std::string::npos) continue;
    if (std::regex_search(s.text, kSkipLead)) continue;
    if (s.text.find('(') != std::string::npos) continue;
    std::string decl = s.text;
    const std::size_t eq = decl.find('=');
    if (eq != std::string::npos) decl = decl.substr(0, eq);
    while (!decl.empty() &&
           std::isspace(static_cast<unsigned char>(decl.back())) != 0) {
      decl.pop_back();
    }
    if (!std::regex_match(decl, kMemberShape)) continue;
    std::size_t name_start = decl.size();
    while (name_start > 0 && is_ident_char(decl[name_start - 1])) {
      --name_start;
    }
    findings.push_back({"CON005", file, s.line,
                        "member '" + decl.substr(name_start) +
                            "' shares a class with a mutex but carries no "
                            "DART_GUARDED_BY annotation"});
  }
}

void check_con006(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  static const std::regex kRawLock(
      R"((\.|->)\s*(lock|unlock|try_lock)\s*\(\s*\))");
  for (std::sregex_iterator it(code.begin(), code.end(), kRawLock), end;
       it != end; ++it) {
    findings.push_back(
        {"CON006", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "bare " + (*it)[2].str() +
             "() call; lock through an RAII scope (common::MutexLock / "
             "common::UniqueLock)"});
  }
}

void check_con007(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  // Only the write side can tear a publish: ofstream construction and
  // fopen/fwrite/rename calls are flagged, ifstream/fread reads are not.
  // write_atomic itself lives in src/telemetry (not exporter-classified),
  // so its own ofstream + rename implementation stays legal.
  static const std::regex kOfstream(
      R"(\b(?:std\s*::\s*)?ofstream\s+[A-Za-z_]\w*\s*[({])");
  static const std::regex kWriteCall(R"(\b(fopen|fwrite|rename)\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kOfstream), end;
       it != end; ++it) {
    findings.push_back(
        {"CON007", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "raw ofstream in exporter code; publish through "
         "telemetry::write_atomic (tmp + rename) so a concurrent collector "
         "never observes a torn frame"});
  }
  for (std::sregex_iterator it(code.begin(), code.end(), kWriteCall), end;
       it != end; ++it) {
    findings.push_back(
        {"CON007", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "raw " + (*it)[1].str() +
             "() in exporter code; publish through telemetry::write_atomic "
             "(tmp + rename) so a concurrent collector never observes a "
             "torn frame"});
  }
}

void check_con008(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  // The collector's contract is poll-attempt-counted determinism: fencing,
  // gap grace, and skew healing must be functions of (spool contents, poll
  // count), never of when the polls happened. Any ::now() read — or a
  // wait_for/wait_until/sleep_until deadline built on one — lets wall time
  // back into those decisions. sleep_for between polls is deliberately
  // legal: it spaces the polls out without any decision observing a clock.
  static const std::regex kNowCall(R"(\b[A-Za-z_]\w*\s*::\s*now\s*\()");
  static const std::regex kDeadlineWait(
      R"(\b(wait_for|wait_until|sleep_until)\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kNowCall), end;
       it != end; ++it) {
    findings.push_back(
        {"CON008", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         "wall-clock read in collector code; decisions must be counted in "
         "poll attempts so the same spool always yields the same report"});
  }
  for (std::sregex_iterator it(code.begin(), code.end(), kDeadlineWait), end;
       it != end; ++it) {
    findings.push_back(
        {"CON008", file,
         line_of(lines, static_cast<std::size_t>(it->position())),
         (*it)[1].str() +
             "() deadline in collector code; pace with sleep_for and count "
             "decisions in poll attempts, not elapsed time"});
  }
}

void check_con009(const std::string& code,
                  const std::vector<std::size_t>& lines,
                  const std::string& file, std::vector<Finding>& findings) {
  // Free-function socket waits that block until a peer acts. Member calls
  // (`in.read(...)`, `stream->read(...)`) are stream I/O, not socket
  // syscalls, so the name must not follow '.' or '->'; an identifier
  // character to the left (fread, bounded_read) is a different function.
  static const std::regex kBlockingCall(
      R"((^|[^\w.>])(accept4?|recv|recvfrom|recvmsg|read)\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kBlockingCall), end;
       it != end; ++it) {
    const std::size_t name_pos =
        static_cast<std::size_t>(it->position(2));
    // `long read(...)` is a declaration, not a wait: a preceding word
    // other than an expression keyword means a return type sits there.
    std::size_t back = name_pos;
    while (back > 0 && (code[back - 1] == ' ' || code[back - 1] == '\t' ||
                        code[back - 1] == '\n' || code[back - 1] == '\r')) {
      --back;
    }
    if (back > 0 && is_ident_char(code[back - 1])) {
      std::size_t word_start = back;
      while (word_start > 0 && is_ident_char(code[word_start - 1])) {
        --word_start;
      }
      const std::string word = code.substr(word_start, back - word_start);
      if (word != "return" && word != "co_return" && word != "co_await" &&
          word != "throw" && word != "else" && word != "do") {
        continue;
      }
    }
    findings.push_back(
        {"CON009", file, line_of(lines, name_pos),
         "blocking " + (*it)[2].str() +
             "() in daemon code can park the thread past SIGTERM; wait "
             "through the daemon::net bounded helpers (poll slice + stop "
             "re-check)"});
  }
  // poll()/ppoll() with an infinite timeout is the same bug with extra
  // steps: the wait never wakes to look at the shutdown flag.
  static const std::regex kPoll(R"(\bp?poll\s*\()");
  for (std::sregex_iterator it(code.begin(), code.end(), kPoll), end;
       it != end; ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position()) + it->length() - 1;
    const std::size_t close = match_paren(code, open);
    if (close == std::string::npos) continue;
    const std::string args = code.substr(open + 1, close - open - 1);
    static const std::regex kInfinite(R"(,\s*(-\s*1|nullptr|NULL)\s*$)");
    if (std::regex_search(args, kInfinite)) {
      findings.push_back(
          {"CON009", file,
           line_of(lines, static_cast<std::size_t>(it->position())),
           "poll() with an infinite timeout in daemon code never wakes to "
           "check the shutdown flag; use a bounded slice and re-check"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Path classification for tree mode; `rel` uses forward slashes.
FileClass classify(const std::string& rel) {
  FileClass fc;
  const auto starts = [&rel](const char* prefix) {
    return rel.rfind(prefix, 0) == 0;
  };
  fc.hotpath = starts("src/core/") || starts("src/runtime/") ||
               rel == "src/telemetry/metrics.hpp" ||
               starts("src/common/packet.");
  // Daemon code is wall-clock-paced by nature (rate pacing, idle sleeps),
  // so it is exempt from CON003 and gets CON009 instead.
  fc.deterministic = starts("src/") && !starts("src/runtime/") &&
                     !starts("src/tools/") && !starts("src/daemon/");
  fc.exported = starts("src/core/") || starts("src/telemetry/") ||
                starts("src/analytics/");
  const std::string base = fs::path(rel).filename().string();
  fc.threads_ok = base.rfind("sharded_monitor.", 0) == 0 ||
                  base.rfind("query_server.", 0) == 0;
  // Everything that publishes snapshot frames for a concurrent reader:
  // the fleet subsystem and the dart-fleet CLI around it.
  fc.exporter = starts("src/fleet/") || rel == "src/tools/dart_fleet.cpp";
  // The merge side: its fencing/grace/skew decisions are poll-counted.
  fc.collector =
      rel == "src/fleet/collector.cpp" || rel == "src/fleet/collector.hpp";
  fc.daemon = starts("src/daemon/") || rel == "src/tools/dart_daemon.cpp";
  return fc;
}

struct FileResult {
  std::vector<Finding> findings;
  FileWaivers waivers;
};

bool analyze_file(const fs::path& path, const std::string& display,
                  const FileClass& fc, FileResult& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot read " + path.string();
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string original = buffer.str();
  const std::string code = strip_noncode(original);
  const std::vector<std::size_t> lines = line_offsets(code);

  out.waivers = scan_inline_waivers(original, code);
  if (fc.hotpath) check_con001(code, lines, display, out.findings);
  if (!fc.threads_ok) check_con002(code, lines, display, out.findings);
  if (fc.deterministic) check_con003(code, lines, display, out.findings);
  if (fc.exported) {
    // A .cpp iterates members its own text never declares; pull unordered
    // member names from the sibling header so hash-order walks over them
    // are visible from the implementation file.
    std::set<std::string> header_names;
    const std::string ext = path.extension().string();
    if (ext == ".cpp" || ext == ".cc") {
      for (const char* hext : {".hpp", ".h"}) {
        fs::path header = path;
        header.replace_extension(hext);
        std::ifstream hin(header, std::ios::binary);
        if (!hin) continue;
        std::stringstream hbuf;
        hbuf << hin.rdbuf();
        const std::set<std::string> names =
            collect_unordered_names(strip_noncode(hbuf.str()));
        header_names.insert(names.begin(), names.end());
      }
    }
    check_con004(code, lines, display, header_names, out.findings);
  }
  check_con005(code, lines, display, out.findings);
  check_con006(code, lines, display, out.findings);
  if (fc.exporter) check_con007(code, lines, display, out.findings);
  if (fc.collector) check_con008(code, lines, display, out.findings);
  if (fc.daemon) check_con009(code, lines, display, out.findings);
  return true;
}

void print_usage(std::ostream& out) {
  out << "usage: dart-analyze [options] [file...]\n"
         "\n"
         "Modes:\n"
         "  --repo-root DIR   scan DIR/src recursively; loads\n"
         "                    DIR/dart_analyze_waivers.txt when present\n"
         "  file...           analyze the given files (fixture mode)\n"
         "\n"
         "Options:\n"
         "  --treat-as CLASS  classify explicit files as hotpath|\n"
         "                    deterministic|export|exporter|collector|\n"
         "                    daemon|threads-ok|plain\n"
         "                    (default: plain; CON005/CON006 always apply)\n"
         "  --waivers FILE    load a tree waiver file in fixture mode\n"
         "  --quiet           diagnostics only, no summary line\n"
         "  --list-rules      describe the rules and exit\n"
         "  --help            this text\n"
         "\n"
         "Inline waivers: a comment 'con-ok(CODE): reason' on the finding\n"
         "line or a comment line directly above it. Waivers that suppress\n"
         "nothing are stale-waiver errors.\n"
         "Exits 0 when clean, 1 on findings or stale waivers, 2 on usage\n"
         "or I/O error.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string repo_root;
  std::string treat_as = "plain";
  std::string waiver_path;
  bool quiet = false;
  std::vector<std::string> files;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](std::string& out) -> bool {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << arg << " needs a value\n";
        return false;
      }
      out = args[++i];
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& rule : kRules) {
        std::cout << rule.code << "  " << rule.name << "\n";
      }
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--repo-root") {
      if (!value(repo_root)) return 2;
    } else if (arg == "--treat-as") {
      if (!value(treat_as)) return 2;
    } else if (arg == "--waivers") {
      if (!value(waiver_path)) return 2;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  FileClass fixture_class;
  if (treat_as == "hotpath") {
    fixture_class.hotpath = true;
    fixture_class.deterministic = true;
  } else if (treat_as == "deterministic") {
    fixture_class.deterministic = true;
  } else if (treat_as == "export") {
    fixture_class.exported = true;
  } else if (treat_as == "exporter") {
    fixture_class.exporter = true;
  } else if (treat_as == "collector") {
    fixture_class.collector = true;
  } else if (treat_as == "daemon") {
    fixture_class.daemon = true;
  } else if (treat_as == "threads-ok") {
    fixture_class.threads_ok = true;
  } else if (treat_as != "plain") {
    std::cerr << "error: unknown --treat-as class '" << treat_as << "'\n";
    return 2;
  }

  // Assemble the work list: (filesystem path, display path, class).
  struct Work {
    fs::path path;
    std::string display;
    FileClass fc;
  };
  std::vector<Work> work;
  std::vector<TreeWaiver> tree_waivers;
  std::string error;

  if (!repo_root.empty()) {
    if (!files.empty()) {
      std::cerr << "error: --repo-root and explicit files are exclusive\n";
      return 2;
    }
    const fs::path root(repo_root);
    const fs::path src = root / "src";
    std::error_code ec;
    if (!fs::is_directory(src, ec)) {
      std::cerr << "error: no src/ under " << root.string() << "\n";
      return 2;
    }
    for (fs::recursive_directory_iterator it(src), end; it != end; ++it) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") {
        continue;
      }
      std::string rel = fs::relative(it->path(), root).generic_string();
      work.push_back({it->path(), rel, classify(rel)});
    }
    std::sort(work.begin(), work.end(),
              [](const Work& a, const Work& b) {
                return a.display < b.display;
              });
    const fs::path default_waivers = root / "dart_analyze_waivers.txt";
    if (waiver_path.empty() && fs::exists(default_waivers, ec)) {
      waiver_path = default_waivers.string();
    }
  } else {
    if (files.empty()) {
      std::cerr << "error: no input (give files or --repo-root)\n";
      print_usage(std::cerr);
      return 2;
    }
    for (const std::string& file : files) {
      work.push_back({fs::path(file), file, fixture_class});
    }
  }

  if (!waiver_path.empty() &&
      !load_tree_waivers(waiver_path, tree_waivers, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  std::vector<Finding> reported;
  std::vector<std::string> stale;
  std::size_t waived_count = 0;
  for (const Work& item : work) {
    FileResult result;
    if (!analyze_file(item.path, item.display, item.fc, result, error)) {
      std::cerr << "error: " << error << "\n";
      return 2;
    }
    for (Finding& f : result.findings) {
      const auto it = result.waivers.effective.find(f.line);
      if (it != result.waivers.effective.end() &&
          it->second.count(f.code) != 0) {
        f.waived = true;
        result.waivers.mark_used(f.line, f.code);
      }
      for (TreeWaiver& w : tree_waivers) {
        if (!f.waived && w.code == f.code && w.path == f.file) {
          f.waived = true;
          w.used = true;
        }
      }
      if (f.waived) {
        ++waived_count;
      } else {
        reported.push_back(f);
      }
    }
    for (const InlineWaiver& w : result.waivers.waivers) {
      if (!w.used) {
        stale.push_back("error[stale-waiver]: " + item.display + ":" +
                        std::to_string(w.line) + ": inline waiver for " +
                        w.code + " suppresses no finding; remove it");
      }
    }
  }
  if (!repo_root.empty() || !waiver_path.empty()) {
    for (const TreeWaiver& w : tree_waivers) {
      if (!w.used) {
        stale.push_back("error[stale-waiver]: " + waiver_path + ":" +
                        std::to_string(w.line) + ": waiver '" + w.code +
                        " " + w.path + "' suppresses no finding; remove it");
      }
    }
  }

  for (const Finding& f : reported) {
    std::cout << "error[" << f.code << "]: " << f.file << ":" << f.line
              << ": " << f.message << "\n";
  }
  for (const std::string& message : stale) std::cout << message << "\n";
  if (!quiet) {
    std::cout << "dart-analyze: " << work.size() << " file(s), "
              << reported.size() << " finding(s), " << waived_count
              << " waived, " << stale.size() << " stale waiver(s)\n";
  }
  return reported.empty() && stale.empty() ? 0 : 1;
}
