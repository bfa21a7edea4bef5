// chklint rule registry.
//
// Each rule is a pure function over the lexed tree: it appends Finding
// records and never mutates the sources. Suppression (`chklint:allow`) is
// applied by the driver after all rules ran, so rules stay oblivious to it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace chk::lint {

struct Finding {
  std::string rule;
  std::string path;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
  std::string message;

  /// Deterministic report order: path, then line/col, then rule/message.
  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  }
};

struct Context {
  const std::vector<SourceFile>* files = nullptr;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
  void (*run)(const Context&, std::vector<Finding>&);
};

/// All registered rules, in stable registration order.
const std::vector<RuleInfo>& all_rules();

}  // namespace chk::lint
