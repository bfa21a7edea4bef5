// The five determinism-discipline rules.
//
// All rules are token-level heuristics tuned to this codebase's
// conventions. They prefer false negatives over false positives, and every
// deliberate exception is expected to carry a `// chklint:allow(<rule>)`
// comment with a justification — the analyzer is a discipline gate, not a
// type checker.
#include "rules.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>

namespace chk::lint {

namespace {

using Tokens = std::vector<Token>;

bool is(const Token& t, std::string_view text) { return t.text == text; }

/// True when `path` (root-relative) lives under directory `dir` at any depth.
bool under(const std::string& path, std::string_view dir) {
  const std::string needle = std::string(dir) + "/";
  if (path.rfind(needle, 0) == 0) return true;
  return path.find("/" + needle) != std::string::npos;
}

/// Matching ')' for the '(' at `open`; tokens.size() if unbalanced.
std::size_t match_forward(const Tokens& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is(toks[i], "(")) ++depth;
    if (is(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

/// Matching '(' for the ')' at `close`; tokens.size() if unbalanced.
std::size_t match_backward(const Tokens& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is(toks[i], ")")) ++depth;
    if (is(toks[i], "(") && --depth == 0) return i;
  }
  return toks.size();
}

/// Parse a C++ integer literal (hex/dec/oct/bin, digit separators, u/l
/// suffixes). nullopt for floats or anything else.
std::optional<std::uint64_t> parse_int_literal(std::string_view text) {
  std::string digits;
  for (const char c : text)
    if (c != '\'') digits.push_back(c);
  while (!digits.empty()) {
    const char back = digits.back();
    if (back == 'u' || back == 'U' || back == 'l' || back == 'L' || back == 'z' ||
        back == 'Z') {
      digits.pop_back();
    } else {
      break;
    }
  }
  if (digits.empty()) return std::nullopt;
  int base = 10;
  std::size_t pos = 0;
  if (digits.size() > 2 && digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X')) {
    base = 16;
    pos = 2;
  } else if (digits.size() > 2 && digits[0] == '0' &&
             (digits[1] == 'b' || digits[1] == 'B')) {
    base = 2;
    pos = 2;
  } else if (digits.size() > 1 && digits[0] == '0') {
    base = 8;
    pos = 1;
  }
  std::uint64_t value = 0;
  if (pos >= digits.size()) return digits == "0" ? std::optional<std::uint64_t>(0)
                                                 : std::nullopt;
  for (; pos < digits.size(); ++pos) {
    const char c = digits[pos];
    int d = 0;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = 10 + (c - 'a');
    else if (c >= 'A' && c <= 'F') d = 10 + (c - 'A');
    else return std::nullopt;
    if (d >= base) return std::nullopt;
    value = value * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(d);
  }
  return value;
}

bool is_float_literal(std::string_view text) {
  if (text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X'))
    return text.find('p') != std::string_view::npos ||
           text.find('P') != std::string_view::npos;
  if (text.find('.') != std::string_view::npos) return true;
  if (text.find('e') != std::string_view::npos ||
      text.find('E') != std::string_view::npos)
    return true;
  return !text.empty() && (text.back() == 'f' || text.back() == 'F');
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llX", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Rule 1: no-ambient-nondeterminism
// ---------------------------------------------------------------------------

void rule_no_ambient_nondeterminism(const Context& ctx, std::vector<Finding>& out) {
  static const std::set<std::string_view> kBannedAnywhere = {
      "random_device", "mt19937",       "mt19937_64",   "minstd_rand",
      "minstd_rand0",  "knuth_b",       "ranlux24",     "ranlux48",
      "ranlux24_base", "ranlux48_base", "srand",        "gettimeofday",
      "localtime",     "gmtime",        "system_clock", "steady_clock",
      "high_resolution_clock", "default_random_engine"};
  static const std::set<std::string_view> kBannedCalls = {"rand", "time", "clock"};
  // OS threads interleave at the host scheduler's whim. Inside src/ every
  // simulated process is a des::Fiber on its simulator's one thread; only
  // drivers (bench/) may run whole simulators on worker threads.
  static const std::set<std::string_view> kBannedInSrc = {"jthread", "binary_semaphore",
                                                          "counting_semaphore"};

  for (const SourceFile& file : *ctx.files) {
    // util::Rng is the one place allowed to own raw generator machinery.
    if (file.path.find("util/rng.") != std::string::npos) continue;
    const bool in_src = under(file.path, "src");
    const Tokens& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent) continue;
      const std::string_view name = toks[i].text;
      const bool std_thread =
          name == "thread" && i >= 2 && is(toks[i - 1], "::") && is(toks[i - 2], "std");
      if (in_src && (kBannedInSrc.contains(name) || std_thread)) {
        std::string msg = "'";
        msg.append(std_thread ? "std::thread" : name);
        msg += "' is an OS thread primitive, scheduled nondeterministically; "
               "simulated processes are des::Fiber contexts on the simulator's "
               "thread (only bench/ drivers may run whole simulators on threads)";
        out.push_back({"no-ambient-nondeterminism", file.path, toks[i].line, toks[i].col,
                       std::move(msg)});
        continue;
      }
      const bool clock_like = name.find("clock") != std::string_view::npos ||
                              name == "time" || name == "gettimeofday" ||
                              name == "localtime" || name == "gmtime";
      if (kBannedAnywhere.contains(name)) {
        std::string msg = "'";
        msg.append(name);
        msg += "' is ambient nondeterminism; ";
        msg += clock_like ? "use the simulator clock (des::Simulator::now)"
                          : "route randomness through util::Rng::fork with a "
                            "unique stream tag";
        out.push_back({"no-ambient-nondeterminism", file.path, toks[i].line,
                       toks[i].col, std::move(msg)});
        continue;
      }
      if (!kBannedCalls.contains(name)) continue;
      if (i + 1 >= toks.size() || !is(toks[i + 1], "(")) continue;
      if (i > 0) {
        const Token& prev = toks[i - 1];
        if (is(prev, ".") || is(prev, "->")) continue;  // member of another type
        if (is(prev, "::")) {
          // std::rand / ::time are still the libc functions; Foo::time is not.
          if (i >= 2 && toks[i - 2].kind == Tok::kIdent && !is(toks[i - 2], "std"))
            continue;
        }
      }
      out.push_back({"no-ambient-nondeterminism", file.path, toks[i].line,
                     toks[i].col,
                     "call to '" + std::string(name) +
                         "()' is ambient nondeterminism; " +
                         (name == "rand"
                              ? "route randomness through util::Rng::fork with a "
                                "unique stream tag"
                              : "use the simulator clock (des::Simulator::now)")});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2: unique-fork-tags
// ---------------------------------------------------------------------------

bool is_fault_domain(const std::string& path) {
  return under(path, "faultsim") ||
         path.find("storage_fault.") != std::string::npos ||
         path.find("link_fault.") != std::string::npos;
}

/// The fault-domain stream tags this codebase has already assigned, each
/// owned by the one file allowed to fork it. Re-using a reserved tag
/// anywhere else silently correlates a new stream with an existing fault
/// domain — that is a finding even without a literal collision in the
/// scanned set (the owner may be outside the scan paths).
struct ReservedTag {
  std::uint64_t tag;
  std::string_view owner;  ///< path substring of the owning file
  std::string_view domain;
};
constexpr ReservedTag kReservedTags[] = {
    {0x11F0, "harness/experiment.cpp", "link weather"},
    {0x510F, "harness/experiment.cpp", "storage weather"},
    {0x57C0, "svc/kvstore", "request-serving workload"},
    {0xBEA7, "harness/experiment.cpp", "membership detector phases"},
    {0xFA11, "faultsim/injector.cpp", "failure injector"},
};

const ReservedTag* reserved_tag(std::uint64_t value) {
  for (const ReservedTag& r : kReservedTags)
    if (r.tag == value) return &r;
  return nullptr;
}

void rule_unique_fork_tags(const Context& ctx, std::vector<Finding>& out) {
  struct Site {
    const SourceFile* file;
    std::uint32_t line;
    std::uint32_t col;
    std::uint64_t value;
  };
  std::map<std::uint64_t, std::vector<Site>> by_value;

  for (const SourceFile& file : *ctx.files) {
    const Tokens& toks = file.tokens;

    // Same-file `constexpr ... kName = <int literal>;` constants resolve as
    // literal tags (the named-constant idiom is encouraged, not penalized).
    std::map<std::string_view, std::uint64_t> constants;
    for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
      if (!is(toks[i], "constexpr")) continue;
      for (std::size_t j = i + 1; j + 3 < toks.size() && j < i + 10; ++j) {
        if (is(toks[j], ";")) break;
        if (toks[j].kind == Tok::kIdent && is(toks[j + 1], "=") &&
            toks[j + 2].kind == Tok::kNumber && is(toks[j + 3], ";")) {
          if (const auto v = parse_int_literal(toks[j + 2].text))
            constants[toks[j].text] = *v;
          break;
        }
      }
    }

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent) continue;
      if (!is(toks[i], "fork") && !is(toks[i], "fork_rng")) continue;
      if (!is(toks[i + 1], "(")) continue;
      const std::size_t close = match_forward(toks, i + 1);
      if (close >= toks.size()) continue;
      const std::size_t argc = close - (i + 2);  // tokens inside the parens
      std::optional<std::uint64_t> tag;
      if (argc == 1 && toks[i + 2].kind == Tok::kNumber) {
        tag = parse_int_literal(toks[i + 2].text);
      } else if (argc == 1 && toks[i + 2].kind == Tok::kIdent) {
        if (const auto it = constants.find(toks[i + 2].text); it != constants.end())
          tag = it->second;
      } else if (argc >= 2 && toks[i + 2].kind == Tok::kNumber &&
                 is(toks[i + 3], "+")) {
        // `fork_rng(0x6000 + rank)` — a literal-based tag family; the base
        // literal is the family's identity in the global namespace.
        tag = parse_int_literal(toks[i + 2].text);
      }
      if (tag) {
        by_value[*tag].push_back({&file, toks[i].line, toks[i].col, *tag});
        if (const ReservedTag* r = reserved_tag(*tag);
            r != nullptr && file.path.find(r->owner) == std::string::npos) {
          out.push_back({"unique-fork-tags", file.path, toks[i].line, toks[i].col,
                         "Rng::fork tag " + hex(*tag) +
                             " is the reserved " + std::string(r->domain) +
                             " stream, owned by " + std::string(r->owner) +
                             "; pick a fresh tag so the streams cannot "
                             "correlate"});
        }
      } else if (argc >= 1 && is_fault_domain(file.path)) {
        out.push_back({"unique-fork-tags", file.path, toks[i].line, toks[i].col,
                       "non-literal Rng::fork tag in fault-domain code; use a "
                       "globally unique hex literal (or same-file constexpr "
                       "constant) so fault streams cannot silently correlate"});
      }
    }
  }

  for (auto& [value, sites] : by_value) {
    if (sites.size() < 2) continue;
    // The first site in report order owns the tag; every other site collides.
    std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
      if (a.file->path != b.file->path) return a.file->path < b.file->path;
      if (a.line != b.line) return a.line < b.line;
      return a.col < b.col;
    });
    const Site& canon = sites.front();
    char loc[64];
    std::snprintf(loc, sizeof loc, ":%u", canon.line);
    for (std::size_t s = 1; s < sites.size(); ++s) {
      out.push_back({"unique-fork-tags", sites[s].file->path, sites[s].line,
                     sites[s].col,
                     "Rng::fork tag " + hex(value) + " collides with " +
                         canon.file->path + loc +
                         "; stream tags must be globally unique or the two "
                         "streams correlate"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: one-door-storage
// ---------------------------------------------------------------------------

void rule_one_door_storage(const Context& ctx, std::vector<Finding>& out) {
  static const std::set<std::string_view> kIoCalls = {"write", "read",
                                                      "write_blocking",
                                                      "read_blocking"};
  for (const SourceFile& file : *ctx.files) {
    if (!under(file.path, "src/chklib") && file.path.find("chklib/") == std::string::npos)
      continue;
    if (file.path.find("storage_client.") != std::string::npos) continue;
    const Tokens& toks = file.tokens;
    for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || !kIoCalls.contains(toks[i].text)) continue;
      if (!is(toks[i + 1], "(")) continue;
      if (!is(toks[i - 1], ".") && !is(toks[i - 1], "->")) continue;
      bool on_storage = false;
      const Token& recv = toks[i - 2];
      if (recv.kind == Tok::kIdent) {
        on_storage = is(recv, "storage_") || is(recv, "storage");
      } else if (is(recv, ")")) {
        const std::size_t open = match_backward(toks, i - 2);
        on_storage = open < toks.size() && open > 0 &&
                     toks[open - 1].kind == Tok::kIdent &&
                     is(toks[open - 1], "storage");
      }
      if (!on_storage) continue;
      out.push_back({"one-door-storage", file.path, toks[i].line, toks[i].col,
                     "direct StableStorage::" + std::string(toks[i].text) +
                         " from chklib; all blocking storage I/O goes through "
                         "the one StorageClient door so retry policy and "
                         "attribution stay centralized"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4: duration-arithmetic
// ---------------------------------------------------------------------------

void rule_duration_arithmetic(const Context& ctx, std::vector<Finding>& out) {
  static const std::set<std::string_view> kFactories = {
      "nanos", "micros", "millis", "secs", "seconds", "zero", "max"};
  for (const SourceFile& file : *ctx.files) {
    const Tokens& toks = file.tokens;

    // Names introduced as `Duration x` / `des::Duration& x` (this also
    // sweeps up Duration-returning function names — which is exactly the
    // set we want to treat as Duration-valued expressions).
    std::set<std::string_view> duration_names;
    std::set<std::string_view> float_names;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent) continue;
      const bool dur = is(toks[i], "Duration");
      const bool flt = is(toks[i], "double") || is(toks[i], "float");
      if (!dur && !flt) continue;
      std::size_t j = i + 1;
      while (j < toks.size() && (is(toks[j], "&") || is(toks[j], "&&") ||
                                 is(toks[j], "const")))
        ++j;
      if (j >= toks.size() || toks[j].kind != Tok::kIdent) continue;
      if (is(toks[j], "operator")) continue;
      (dur ? duration_names : float_names).insert(toks[j].text);
    }

    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
      if (!is(toks[i], "*") && !is(toks[i], "/")) continue;

      bool lhs_duration = false;
      const Token& prev = toks[i - 1];
      if (prev.kind == Tok::kIdent) {
        lhs_duration = duration_names.contains(prev.text) && !float_names.contains(prev.text);
      } else if (is(prev, ")")) {
        const std::size_t open = match_backward(toks, i - 1);
        if (open < toks.size() && open > 0 && toks[open - 1].kind == Tok::kIdent) {
          const std::string_view callee = toks[open - 1].text;
          const std::size_t c = open - 1;
          if (callee.size() > 5 && callee.substr(callee.size() - 5) == "_time") {
            lhs_duration = true;
          } else if (callee == "retry_wait" || callee == "blocked_time") {
            lhs_duration = true;
          } else if (callee == "scaled" && c >= 1 &&
                     (is(toks[c - 1], ".") || is(toks[c - 1], "->"))) {
            lhs_duration = true;
          } else if (kFactories.contains(callee) && c >= 2 &&
                     is(toks[c - 1], "::") && is(toks[c - 2], "Duration")) {
            lhs_duration = true;
          }
        }
      }
      if (!lhs_duration) continue;

      const Token& next = toks[i + 1];
      bool rhs_float = false;
      if (next.kind == Tok::kNumber) {
        rhs_float = is_float_literal(next.text);
      } else if (next.kind == Tok::kIdent) {
        rhs_float = float_names.contains(next.text) ||
                    (is(next, "static_cast") && i + 3 < toks.size() &&
                     is(toks[i + 2], "<") &&
                     (is(toks[i + 3], "double") || is(toks[i + 3], "float")));
      }
      if (!rhs_float) continue;
      out.push_back({"duration-arithmetic", file.path, toks[i].line, toks[i].col,
                     std::string("Duration operator") + std::string(toks[i].text) +
                         " takes int64; a floating operand converts and "
                         "truncates silently — use Duration::scaled(k)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5: ordered-emission
// ---------------------------------------------------------------------------

void rule_ordered_emission(const Context& ctx, std::vector<Finding>& out) {
  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  for (const SourceFile& file : *ctx.files) {
    const bool emission_path = under(file.path, "bench") ||
                               under(file.path, "src/obs") ||
                               under(file.path, "src/svc") ||
                               file.path.find("/obs/") != std::string::npos;
    if (!emission_path) continue;
    for (const Token& t : file.tokens) {
      if (t.kind != Tok::kIdent || !kUnordered.contains(t.text)) continue;
      out.push_back({"ordered-emission", file.path, t.line, t.col,
                     "std::" + std::string(t.text) +
                         " in an emission path: iteration order is "
                         "implementation-defined and would break byte-identical "
                         "artifacts — use std::map/std::set or sort first"});
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      {"no-ambient-nondeterminism",
       "bans std::random_device, rand(), time(), wall clocks and raw engines "
       "outside util/rng.*, and OS threads and semaphores in src/",
       &rule_no_ambient_nondeterminism},
      {"unique-fork-tags",
       "Rng::fork stream-tag literals must be globally unique, reserved "
       "fault-domain tags stay with their owning file, and fault-domain "
       "forks must use literal tags",
       &rule_unique_fork_tags},
      {"one-door-storage",
       "chklib code must do blocking storage I/O through StorageClient, never "
       "StableStorage directly",
       &rule_one_door_storage},
      {"duration-arithmetic",
       "Duration * / with floating operands truncates silently; use "
       "Duration::scaled",
       &rule_duration_arithmetic},
      {"ordered-emission",
       "no std::unordered_* containers in trace/JSON/metrics emission paths "
       "(src/obs/, src/svc/, bench/)",
       &rule_ordered_emission},
  };
  return rules;
}

}  // namespace chk::lint
