// scoped_env.h — scoped environment overrides for tests and benches.
//
// The kernel dispatch reads QMCU_FORCE_SCALAR and QMCU_FORCE_NO_DOT live,
// and a backend snapshots its kernel table when it is built. So a test pins
// one of them around the objects it builds. The guard restores the value
// the variable had before, so a forced CI leg (say QMCU_FORCE_NO_DOT=1 for
// the whole run) stays forced for every later test in the binary, and a
// body that throws still restores.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace qmcu::test {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (prior_) {
      ::setenv(name_.c_str(), prior_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> prior_;
};

}  // namespace qmcu::test
