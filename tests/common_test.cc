#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;

// ---------------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),  Status::OutOfRange("").code(),
      Status::NotFound("").code(),         Status::AlreadyExists("").code(),
      Status::IoError("").code(),          Status::FailedPrecondition("").code(),
      Status::NotImplemented("").code(),   Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(std::move(r).ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  MGBR_ASSIGN_OR_RETURN(int half, HalveEven(x));
  MGBR_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(std::move(QuarterEven(8)).ValueOrDie(), 2);
  EXPECT_FALSE(QuarterEven(6).ok());  // 3 is odd at the second step
  EXPECT_FALSE(QuarterEven(5).ok());
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status CheckBoth(int a, int b) {
  MGBR_RETURN_NOT_OK(FailIfNegative(a));
  MGBR_RETURN_NOT_OK(FailIfNegative(b));
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(CheckBoth(1, 2).ok());
  EXPECT_FALSE(CheckBoth(1, -2).ok());
  EXPECT_FALSE(CheckBoth(-1, 2).ok());
}

// ---------------------------------------------------------------------------
// String utilities.
// ---------------------------------------------------------------------------

TEST(StringUtilTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringUtilTest, StrSplit) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, StrTrim) {
  EXPECT_EQ(StrTrim("  a b  "), "a b");
  EXPECT_EQ(StrTrim("\t\nx\r "), "x");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim(""), "");
}

TEST(StringUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringUtilTest, FormatFloat) {
  EXPECT_EQ(FormatFloat(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFloat(1.0, 4), "1.0000");
  EXPECT_EQ(FormatFloat(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, ParseInt64) {
  long long v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1.5", &v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool any_diff = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    any_diff = any_diff || (a2.Next() != c.Next());
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(1);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMean) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
  EXPECT_EQ(Rng(5).Poisson(0.0), 0);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(7);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[2], 0);  // zero weight never drawn
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(9);
  for (uint64_t k : {0ull, 3ull, 50ull, 100ull}) {
    auto s = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (uint64_t v : s) EXPECT_LT(v, 100u);
  }
}

// ---------------------------------------------------------------------------
// Csv.
// ---------------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  const ScopedTempDir temp("common");
  const std::string path = temp.File("mgbr_csv_test.csv");
  std::vector<std::vector<std::string>> rows = {
      {"1", "2"}, {"3", "4", "5"}, {"x"}};
  ASSERT_TRUE(Csv::WriteFile(path, rows).ok());
  auto read = Csv::ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), rows);
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  const ScopedTempDir temp("common");
  const std::string path = temp.File("mgbr_csv_comments.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# header comment\n\n1,2\n  \n3,4\n", f);
    fclose(f);
  }
  auto read = Csv::ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 2u);
}

TEST(CsvTest, MissingFileIsIoError) {
  auto read = Csv::ReadFile("/nonexistent/path/file.csv");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace mgbr
