// Tiny command-line flag parser used by examples and bench binaries.
// Supports --name=value, --no-name and boolean --flag forms. Every getter
// records the flag as read, so a program can reject the flags it never read
// (typos) and stray positional tokens with reject_unread(); parse_flags()
// wraps both steps into one door with a uniform exit code.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace chk::util {

class Cli {
 public:
  /// Parses argv into "--key[=value]" flags; the first token that is not a
  /// flag is kept for reject_unread() to report.
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;
  /// Strict integer flag: the whole value must parse as an integer >= min.
  /// Throws std::invalid_argument naming the flag otherwise.
  [[nodiscard]] std::int64_t get_int(
      const std::string& key, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min()) const;
  /// Strict number flag: the whole value must parse as a number. Throws
  /// std::invalid_argument naming the flag otherwise.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// Strict boolean flag: bare --key and true/1/yes read true, --no-key and
  /// false/0/no read false. Throws std::invalid_argument naming the flag
  /// for any other value.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Strict probability flag: the whole value must parse as a number in
  /// [0, 1]. Throws std::invalid_argument naming the flag otherwise.
  [[nodiscard]] double get_prob(const std::string& key, double fallback) const;
  /// Strict non-negative flag: the whole value must parse as a number >= 0.
  /// Throws std::invalid_argument naming the flag otherwise.
  [[nodiscard]] double get_nonneg_double(const std::string& key, double fallback) const;
  /// Strict comma-separated number list ("0.05,0.2"): non-empty, and every
  /// token must parse in full to a value in [lo, hi). Throws
  /// std::invalid_argument naming the flag otherwise.
  [[nodiscard]] std::vector<double> get_doubles(const std::string& key,
                                                const std::string& fallback, double lo,
                                                double hi) const;
  /// File path flag: nullopt when absent. Throws std::invalid_argument
  /// naming the flag when it carries no path (bare --key, --no-key or
  /// --key=), which would otherwise write a file named "true".
  [[nodiscard]] std::optional<std::string> get_path(const std::string& key) const;
  /// Comma-separated list of names ("SOR-384,NQUEENS-14"), empty tokens
  /// dropped. Throws std::invalid_argument naming the flag if none is left.
  [[nodiscard]] std::vector<std::string> get_list(const std::string& key,
                                                  const std::string& fallback) const;

  /// Throws std::invalid_argument naming the first flag no getter has read,
  /// or the first positional token.
  void reject_unread() const;

 private:
  /// The flag's raw value, or nullptr when absent; marks the flag read.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> valueless_;  ///< given last as bare --key or --no-key
  std::string stray_;
  mutable std::set<std::string> read_;
};

/// Shared "--verify" / "--no-verify" convention for the example binaries:
/// run with the protocol invariant monitor installed. The default follows
/// the build: on under CHK_INVARIANTS, off otherwise.
[[nodiscard]] bool verify_requested(const Cli& cli);

/// The one command-line door of every example and bench program: builds
/// the Cli, calls `read` (when set) to read every flag the program knows,
/// then rejects any flag it did not read and any positional token. A
/// std::invalid_argument from either step is printed to stderr as
/// "<program>: <message>". Returns 0 when the flags are good, else 2 — the
/// program's exit code.
[[nodiscard]] int parse_flags(const char* program, int argc, char** argv,
                              const std::function<void(const Cli&)>& read = {});

}  // namespace chk::util
