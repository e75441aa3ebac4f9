// Name generators for the value-parameterised suites whose values hold
// C strings. gtest names a case by printing its value, and it prints a
// const char* as its address, so those cases were renamed on every
// rebuild; these derive the name from the string contents instead. The
// binaries using them register with NO_PRETTY_VALUES (tests/
// CMakeLists.txt), so ctest lists the same names.
#pragma once

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>

namespace tagnn::test {

/// The alphanumeric characters of `s` (gtest names allow [A-Za-z0-9_]).
inline std::string name_part(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (std::isalnum(static_cast<unsigned char>(*s))) out += *s;
  }
  return out;
}

/// (dataset, window length), e.g. ("HP", 2) -> "HP_w2".
struct DatasetWindowName {
  template <class P>
  std::string operator()(const ::testing::TestParamInfo<P>& info) const {
    return name_part(std::get<0>(info.param)) + "_w" +
           std::to_string(std::get<1>(info.param));
  }
};

/// (model, dataset), e.g. ("T-GCN", "GT") -> "TGCN_GT".
struct ModelDatasetName {
  template <class P>
  std::string operator()(const ::testing::TestParamInfo<P>& info) const {
    return name_part(std::get<0>(info.param)) + "_" +
           name_part(std::get<1>(info.param));
  }
};

}  // namespace tagnn::test
