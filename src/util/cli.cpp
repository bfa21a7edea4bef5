#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "util/format.hpp"

namespace chk::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (stray_.empty()) stray_ = arg;
      continue;
    }
    // Unambiguous grammar: --key=value assigns, --no-key clears, bare
    // --key is boolean true. (A "--key value" form would make "value"
    // indistinguishable from a positional argument.)
    std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      const std::string key(body.substr(0, eq));
      values_[key] = std::string(body.substr(eq + 1));
      valueless_.erase(key);
    } else if (body.starts_with("no-")) {
      values_[std::string(body.substr(3))] = "false";
      valueless_.insert(std::string(body.substr(3)));
    } else {
      values_[std::string(body)] = "true";
      valueless_.insert(std::string(body));
    }
  }
}

const std::string* Cli::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& key) const { return find(key) != nullptr; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

std::optional<std::string> Cli::get_path(const std::string& key) const {
  const std::string* value = find(key);
  if (value == nullptr) return std::nullopt;
  if (value->empty() || valueless_.contains(key)) {
    throw std::invalid_argument("--" + key + ": expected a file path");
  }
  return *value;
}

namespace {

/// Full-string numeric parse; "" / "0.5x" / "nan" all fail.
double parse_strict(const std::string& key, const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || v != v) {
    throw std::invalid_argument("--" + key + ": expected a number, got \"" + text + "\"");
  }
  return v;
}

/// Comma-separated tokens with empty ones dropped ("a,,b," -> {a, b}).
std::vector<std::string> split_csv(const std::string& key, const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("--" + key + ": empty list");
  return out;
}

}  // namespace

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback,
                          std::int64_t min) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const char* begin = value->c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + key + ": expected an integer, got \"" + *value +
                                "\"");
  }
  if (v < min) {
    throw std::invalid_argument(format("--{}: value must be >= {}, got {}", key, min, v));
  }
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : parse_strict(key, *value);
}

double Cli::get_prob(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const double v = parse_strict(key, *value);
  if (v < 0.0 || v > 1.0) {
    throw std::invalid_argument("--" + key + ": probability must be in [0, 1], got " +
                                *value);
  }
  return v;
}

double Cli::get_nonneg_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  const double v = parse_strict(key, *value);
  if (v < 0.0) {
    throw std::invalid_argument("--" + key + ": value must be >= 0, got " + *value);
  }
  return v;
}

std::vector<double> Cli::get_doubles(const std::string& key, const std::string& fallback,
                                     double lo, double hi) const {
  std::vector<double> out;
  for (const std::string& token : get_list(key, fallback)) {
    const double v = parse_strict(key, token);
    if (v < lo || v >= hi) {
      throw std::invalid_argument(
          format("--{}: values must be in [{:g}, {:g}), got {}", key, lo, hi, token));
    }
    out.push_back(v);
  }
  return out;
}

std::vector<std::string> Cli::get_list(const std::string& key,
                                       const std::string& fallback) const {
  return split_csv(key, get(key, fallback));
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  throw std::invalid_argument("--" + key + ": expected a boolean, got \"" + *value + "\"");
}

void Cli::reject_unread() const {
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) throw std::invalid_argument("unknown flag --" + key);
  }
  if (!stray_.empty()) {
    throw std::invalid_argument("unexpected argument '" + stray_ + "'");
  }
}

bool verify_requested(const Cli& cli) {
#ifdef CHK_INVARIANTS
  return cli.get_bool("verify", true);
#else
  return cli.get_bool("verify", false);
#endif
}

int parse_flags(const char* program, int argc, char** argv,
                const std::function<void(const Cli&)>& read) {
  try {
    const Cli cli(argc, argv);
    if (read) read(cli);
    cli.reject_unread();
    return 0;
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "%s: %s\n", program, err.what());
    return 2;
  }
}

}  // namespace chk::util
