#include <cstdio>

#include <gtest/gtest.h>

#include "common/config.h"
#include "tests/test_util.h"

namespace mgbr {
namespace {

using mgbr::testing::ScopedTempDir;

TEST(ConfigTest, SetGetRoundTrip) {
  KeyValueConfig config;
  config.Set("epochs", "12");
  config.Set("lr", "0.01");
  config.Set("name", "MGBR");
  config.Set("verbose", "true");
  EXPECT_TRUE(config.Has("epochs"));
  EXPECT_FALSE(config.Has("missing"));
  EXPECT_EQ(std::move(config.GetInt("epochs", 0)).ValueOrDie(), 12);
  EXPECT_DOUBLE_EQ(std::move(config.GetDouble("lr", 0)).ValueOrDie(), 0.01);
  EXPECT_EQ(config.GetString("name", ""), "MGBR");
  EXPECT_TRUE(std::move(config.GetBool("verbose", false)).ValueOrDie());
}

TEST(ConfigTest, FallbacksWhenAbsent) {
  KeyValueConfig config;
  EXPECT_EQ(std::move(config.GetInt("x", 7)).ValueOrDie(), 7);
  EXPECT_DOUBLE_EQ(std::move(config.GetDouble("y", 2.5)).ValueOrDie(), 2.5);
  EXPECT_FALSE(std::move(config.GetBool("z", false)).ValueOrDie());
  EXPECT_EQ(config.GetString("s", "dflt"), "dflt");
}

TEST(ConfigTest, MalformedValuesFailLoudly) {
  KeyValueConfig config;
  config.Set("epochs", "ten");
  config.Set("lr", "fast");
  config.Set("flag", "maybe");
  EXPECT_FALSE(config.GetInt("epochs", 0).ok());
  EXPECT_FALSE(config.GetDouble("lr", 0).ok());
  EXPECT_FALSE(config.GetBool("flag", false).ok());
}

TEST(ConfigTest, BooleanSpellings) {
  KeyValueConfig config;
  for (const char* t : {"true", "1", "yes", "on"}) {
    config.Set("b", t);
    EXPECT_TRUE(std::move(config.GetBool("b", false)).ValueOrDie()) << t;
  }
  for (const char* f : {"false", "0", "no", "off"}) {
    config.Set("b", f);
    EXPECT_FALSE(std::move(config.GetBool("b", true)).ValueOrDie()) << f;
  }
}

TEST(ConfigTest, FromArgsParsesFlagsOnly) {
  const char* argv[] = {"prog", "--epochs=3", "positional", "--lr=0.5",
                        "--bad", "--=x"};
  KeyValueConfig config = KeyValueConfig::FromArgs(6, argv);
  EXPECT_EQ(std::move(config.GetInt("epochs", 0)).ValueOrDie(), 3);
  EXPECT_DOUBLE_EQ(std::move(config.GetDouble("lr", 0)).ValueOrDie(), 0.5);
  EXPECT_EQ(config.Keys().size(), 2u);
}

TEST(ConfigTest, FromFileParsesAndValidates) {
  const ScopedTempDir temp("config");
  const std::string path = temp.File("mgbr_config_test.conf");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("# experiment\nepochs = 5\n\nname= MGBR-M \nlr =1e-3\n", f);
    fclose(f);
  }
  auto loaded = KeyValueConfig::FromFile(path);
  ASSERT_TRUE(loaded.ok());
  KeyValueConfig config = std::move(loaded).ValueOrDie();
  EXPECT_EQ(std::move(config.GetInt("epochs", 0)).ValueOrDie(), 5);
  EXPECT_EQ(config.GetString("name", ""), "MGBR-M");
  EXPECT_DOUBLE_EQ(std::move(config.GetDouble("lr", 0)).ValueOrDie(), 1e-3);
}

TEST(ConfigTest, FromFileRejectsMalformedLines) {
  const ScopedTempDir temp("config");
  const std::string path = temp.File("mgbr_config_bad.conf");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("epochs = 5\nnot a key value line\n", f);
    fclose(f);
  }
  EXPECT_FALSE(KeyValueConfig::FromFile(path).ok());
  EXPECT_FALSE(KeyValueConfig::FromFile("/no/such.conf").ok());
}

TEST(ConfigTest, MergeOverridesAndPreservesOrder) {
  KeyValueConfig base;
  base.Set("a", "1");
  base.Set("b", "2");
  KeyValueConfig overlay;
  overlay.Set("b", "20");
  overlay.Set("c", "30");
  base.MergeFrom(overlay);
  EXPECT_EQ(std::move(base.GetInt("a", 0)).ValueOrDie(), 1);
  EXPECT_EQ(std::move(base.GetInt("b", 0)).ValueOrDie(), 20);
  EXPECT_EQ(std::move(base.GetInt("c", 0)).ValueOrDie(), 30);
  EXPECT_EQ(base.Keys(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ConfigTest, ToStringEchoesAllKeys) {
  KeyValueConfig config;
  config.Set("x", "1");
  config.Set("y", "two");
  EXPECT_EQ(config.ToString(), "x = 1\ny = two\n");
}

}  // namespace
}  // namespace mgbr
