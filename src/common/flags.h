// Tiny argv parser used by the bench driver. Accepts "--name=value",
// "--name value", and bare "--name" switches; typed getters return the
// caller's default when the flag is absent. Validate() is the gate that
// rejects anything else: an undeclared flag, a stray positional argument,
// a flag without a value, a value that does not parse as the flag's
// declared type, or an integer outside the flag's declared range.
#ifndef CUCKOOGRAPH_COMMON_FLAGS_H_
#define CUCKOOGRAPH_COMMON_FLAGS_H_

#include <climits>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace cuckoograph {

enum class FlagType { kInt, kDouble, kString };

// One accepted flag: its name (without "--"), the type its value must
// parse as and, for an integer flag, the inclusive range it must lie in.
struct FlagSpec {
  const char* name;
  FlagType type;
  long long min = LLONG_MIN;
  long long max = LLONG_MAX;
};

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        positional_.emplace_back(arg);
        continue;
      }
      std::string body(arg + 2);
      const size_t eq = body.find('=');
      if (eq != std::string::npos) {
        values_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[body] = argv[++i];
      } else {
        values_[body] = "";
      }
    }
  }

  // Returns an empty string when every argument is a flag named in
  // `accepted` with a value that parses as its declared type (and lies in
  // its range); otherwise a message naming the first offending argument.
  std::string Validate(const std::vector<FlagSpec>& accepted) const {
    if (!positional_.empty()) {
      return "unexpected argument '" + positional_.front() + "'";
    }
    for (const auto& [name, value] : values_) {
      const FlagSpec* spec = nullptr;
      for (const FlagSpec& candidate : accepted) {
        if (name == candidate.name) spec = &candidate;
      }
      if (spec == nullptr) return "unknown flag --" + name;
      if (value.empty()) return "--" + name + " needs a value";
      const bool parses =
          spec->type == FlagType::kInt      ? ParseInt(value, nullptr)
          : spec->type == FlagType::kDouble ? ParseDouble(value, nullptr)
                                            : true;
      if (!parses) {
        return "--" + name + " needs " +
               (spec->type == FlagType::kInt ? "an integer" : "a number") +
               ", got '" + value + "'";
      }
      long long parsed = 0;
      if (spec->type == FlagType::kInt && ParseInt(value, &parsed) &&
          (parsed < spec->min || parsed > spec->max)) {
        return "--" + name + " must be between " + std::to_string(spec->min) +
               " and " + std::to_string(spec->max) + ", got '" + value + "'";
      }
    }
    return "";
  }

  bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  std::string GetString(const std::string& name,
                        const std::string& default_value) const {
    const auto it = values_.find(name);
    return it == values_.end() ? default_value : it->second;
  }

  long long GetInt(const std::string& name, long long default_value) const {
    const auto it = values_.find(name);
    long long parsed = default_value;
    if (it != values_.end()) ParseInt(it->second, &parsed);
    return parsed;
  }

  double GetDouble(const std::string& name, double default_value) const {
    const auto it = values_.find(name);
    double parsed = default_value;
    if (it != values_.end()) ParseDouble(it->second, &parsed);
    return parsed;
  }

 private:
  // Whole-string parses: "12x", "" and "abc" all fail. `out` is written
  // only on success and may be null.
  static bool ParseInt(const std::string& text, long long* out) {
    if (text.empty()) return false;
    char* end = nullptr;
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (*end != '\0') return false;
    if (out != nullptr) *out = parsed;
    return true;
  }

  static bool ParseDouble(const std::string& text, double* out) {
    if (text.empty()) return false;
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (*end != '\0') return false;
    if (out != nullptr) *out = parsed;
    return true;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace cuckoograph

#endif  // CUCKOOGRAPH_COMMON_FLAGS_H_
