#include "src/common/flags.hpp"

#include <cstdlib>
#include <iostream>

#include "src/common/error.hpp"

namespace splitmed {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    SPLITMED_CHECK(arg.rfind("--", 0) == 0,
                   "expected --flag, got '" << arg << "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --name value, unless the next token is another flag (bare bool).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    consumed_[name] = false;
  }
}

const std::string* Flags::find(const std::string& name) {
  queried_.push_back(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  consumed_[name] = true;
  return &it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  SPLITMED_CHECK(end != nullptr && *end == '\0' && !v->empty(),
                 "--" << name << " expects an integer, got '" << *v << "'");
  return parsed;
}

double Flags::get_double(const std::string& name, double fallback) {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  SPLITMED_CHECK(end != nullptr && *end == '\0' && !v->empty(),
                 "--" << name << " expects a number, got '" << *v << "'");
  return parsed;
}

std::string Flags::get_string(const std::string& name, std::string fallback) {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

bool Flags::get_bool(const std::string& name, bool fallback) {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw InvalidArgument("--" + name + " expects a boolean, got '" + *v + "'");
}

void Flags::validate_no_unknown() const {
  std::string unknown;
  for (const auto& [name, used] : consumed_) {
    if (!used) unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  if (!unknown.empty()) {
    throw InvalidArgument("unknown flag(s): " + unknown +
                          " (known: " + usage() + ")");
  }
}

std::string Flags::usage() const {
  std::string out;
  for (const auto& name : queried_) {
    if (out.find("--" + name) != std::string::npos) continue;
    out += (out.empty() ? "--" : " --") + name;
  }
  return out;
}

bool parse_cli(int argc, const char* const* argv,
               FunctionRef<void(Flags&)> read) {
  try {
    Flags flags(argc, argv);
    read(flags);
    if (!flags.get_bool("help", false)) {
      flags.validate_no_unknown();
      return true;
    }
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << '\n';
  }
  // usage() lists what `read` queries; a clean parse of no flags
  // collects all of it even when argv failed part-way.
  Flags known(0, argv);
  read(known);
  (void)known.get_bool("help", false);
  std::cerr << "usage: " << (argc > 0 ? argv[0] : "program") << ' '
            << known.usage() << '\n';
  return false;
}

}  // namespace splitmed
