#ifndef MGBR_TESTS_TEST_UTIL_H_
#define MGBR_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "tensor/init.h"
#include "tensor/variable.h"

namespace mgbr::testing {

/// Central finite-difference check of reverse-mode gradients.
///
/// `build` must construct a scalar Var from the current values of
/// `leaves` (re-running the full forward). For every element of every
/// leaf, the analytic gradient from Backward() is compared against
/// (f(x+eps) - f(x-eps)) / (2 eps) with a mixed absolute/relative
/// tolerance suited to float32 forward math.
inline void CheckGradients(std::vector<Var>& leaves,
                           const std::function<Var()>& build,
                           double eps = 1e-2, double tol = 2e-2) {
  // Analytic gradients.
  for (Var& leaf : leaves) leaf.ZeroGrad();
  Var out = build();
  ASSERT_EQ(out.value().numel(), 1);
  out.Backward();
  std::vector<Tensor> analytic;
  analytic.reserve(leaves.size());
  for (Var& leaf : leaves) analytic.push_back(leaf.grad());

  for (size_t li = 0; li < leaves.size(); ++li) {
    Tensor& value = leaves[li].mutable_value();
    for (int64_t idx = 0; idx < value.numel(); ++idx) {
      const float original = value.data()[idx];
      value.data()[idx] = original + static_cast<float>(eps);
      const double f_plus = build().value().item();
      value.data()[idx] = original - static_cast<float>(eps);
      const double f_minus = build().value().item();
      value.data()[idx] = original;

      const double numeric = (f_plus - f_minus) / (2.0 * eps);
      const double got = analytic[li].data()[idx];
      const double scale = std::max({1.0, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "leaf " << li << " element " << idx;
    }
  }
}

/// A fresh directory under the test temp directory (`TEST_TMPDIR`, else
/// /tmp), removed with everything in it when the object goes out of
/// scope. Names carry the pid, the process start time and a counter: a
/// pid alone repeats once the OS recycles it, and a test would then
/// meet whatever an earlier run left under the same name.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    static const int64_t start_ns =
        std::chrono::system_clock::now().time_since_epoch().count();
    static std::atomic<int64_t> counter{0};
    path_ = ::testing::TempDir() + "mgbr_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(start_ns) +
            "_" + std::to_string(counter++);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  /// `name` inside the directory; nothing is created.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Small deterministic deal-group log used across tests: `n_groups`
/// groups over `n_users` users / `n_items` items with 0-3 participants.
inline GroupBuyingDataset TinyDataset(int64_t n_users = 12,
                                      int64_t n_items = 6,
                                      int64_t n_groups = 30,
                                      uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<DealGroup> groups;
  for (int64_t g = 0; g < n_groups; ++g) {
    DealGroup group;
    group.initiator = static_cast<int64_t>(rng.UniformInt(n_users));
    group.item = static_cast<int64_t>(rng.UniformInt(n_items));
    const int n_parts = static_cast<int>(rng.UniformInt(4));
    for (int p = 0; p < n_parts; ++p) {
      int64_t cand = static_cast<int64_t>(rng.UniformInt(n_users));
      if (cand != group.initiator) group.participants.push_back(cand);
    }
    groups.push_back(std::move(group));
  }
  return GroupBuyingDataset(n_users, n_items, std::move(groups));
}

}  // namespace mgbr::testing

#endif  // MGBR_TESTS_TEST_UTIL_H_
