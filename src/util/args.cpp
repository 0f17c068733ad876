#include "util/args.h"

#include <stdexcept>

namespace edgerep {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      named_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      named_[body] = argv[++i];
    } else {
      named_[body] = "true";  // bare boolean flag
    }
  }
}

const std::string* Args::find(const std::string& name) const {
  consumed_.insert(name);
  const auto it = named_.find(name);
  return it == named_.end() ? nullptr : &it->second;
}

bool Args::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

long long Args::get_int(const std::string& name, long long fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const long long n = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument(*v);
    return n;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + name + ": expected integer, got '" + *v +
                             "'");
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const double x = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument(*v);
    return x;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + name + ": expected number, got '" + *v +
                             "'");
  }
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::runtime_error("--" + name + ": expected boolean, got '" + *v +
                           "'");
}

std::uint64_t Args::get_seed(const std::string& name,
                             std::uint64_t fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const auto n = std::stoull(*v, &pos, 0);
    if (pos != v->size()) throw std::invalid_argument(*v);
    return n;
  } catch (const std::exception&) {
    throw std::runtime_error("--" + name + ": expected seed, got '" + *v +
                             "'");
  }
}

void Args::reject_unused() const {
  std::string unused;
  for (const auto& [name, value] : named_) {
    if (consumed_.contains(name)) continue;
    unused += (unused.empty() ? "--" : ", --") + name;
  }
  if (!unused.empty()) {
    throw std::runtime_error("unknown or unused flag(s): " + unused);
  }
}

}  // namespace edgerep
