// Tiny command-line argument parser for the bench and example binaries.
// Supports `--name=value`, `--name value`, and boolean flags `--name`.
//
// Every `has`/`get*` call records the name it asked about; after a command
// has read all of its flags, `reject_unused()` turns any flag nobody asked
// about (a typo, a retired flag) into an error instead of a silent default.
// The record is a plain mutable set: read one Args from one thread.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace edgerep {

class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed getters with defaults; throw std::runtime_error on parse failure.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] long long get_int(const std::string& name,
                                  long long fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  [[nodiscard]] std::uint64_t get_seed(const std::string& name,
                                       std::uint64_t fallback) const;

  /// Throw std::runtime_error naming every `--flag` that no `has`/`get*`
  /// call asked about.  Call once a command has read its last flag.
  void reject_unused() const;

  /// Positional (non --) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  /// The value of `name`, or null; records `name` as consumed.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> named_;
  mutable std::set<std::string> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace edgerep
