#pragma once
// Sets (or, for nullptr, unsets) an environment variable for one scope and
// restores the previous value on exit, so tests that exercise the XMP_*
// parsers leave the suite's own settings (e.g. XMP_CHECK=1) intact.

#include <cstdlib>
#include <optional>
#include <string>

class ScopedEnv {
public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value) setenv(name, value, 1);
    else unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_) setenv(name_, old_->c_str(), 1);
    else unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
  const char* name_;
  std::optional<std::string> old_;
};
