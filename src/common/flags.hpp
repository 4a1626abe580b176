// Minimal command-line flag parser for the benches and examples.
//
// Supports --name=value and --name value for int64/double/string/bool
// (--flag alone sets a bool true). Unknown flags are an error so typos
// don't silently run the default experiment.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/function_ref.hpp"

namespace splitmed {

class Flags {
 public:
  /// Parses argv. Throws InvalidArgument on malformed input; call
  /// validate_no_unknown() after reading all flags to reject typos.
  Flags(int argc, const char* const* argv);

  /// Readers: return the flag's value or `fallback` when absent.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback);
  [[nodiscard]] double get_double(const std::string& name, double fallback);
  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback);
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback);

  /// Throws InvalidArgument listing flags that were passed but never read.
  void validate_no_unknown() const;

  /// "--help"-style summary of everything that was queried.
  [[nodiscard]] std::string usage() const;

 private:
  const std::string* find(const std::string& name);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> queried_;  // for usage()
};

/// A program's command line: `read` queries every flag the program knows
/// (storing the values wherever it likes). Returns true when argv parsed
/// cleanly. On --help, an unknown flag or a malformed value it prints the
/// error, if any, and the known flags to stderr and returns false; mains
/// then exit 2 rather than let InvalidArgument reach std::terminate.
[[nodiscard]] bool parse_cli(int argc, const char* const* argv,
                             FunctionRef<void(Flags&)> read);

}  // namespace splitmed
