/** @file Tests for the INI-style configuration parser. */

#include "config/config.hh"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace accel {
namespace {

TEST(Config, ParsesSectionsAndKeys)
{
    Config cfg = Config::fromString(
        "[aes-ni]\n"
        "C = 2.0e9\n"
        "alpha = 0.165844\n"
        "[encryption]\n"
        "L = 2530\n");
    EXPECT_TRUE(cfg.has("aes-ni", "C"));
    EXPECT_DOUBLE_EQ(cfg.getDouble("aes-ni", "alpha"), 0.165844);
    EXPECT_DOUBLE_EQ(cfg.getDouble("encryption", "L"), 2530);
}

TEST(Config, GlobalSection)
{
    Config cfg = Config::fromString("top = 1\n[sec]\nk = 2\n");
    EXPECT_EQ(cfg.getCount("", "top"), 1u);
    EXPECT_EQ(cfg.getCount("sec", "k"), 2u);
}

TEST(Config, CommentsStripped)
{
    Config cfg = Config::fromString(
        "# leading comment\n"
        "a = 1 ; trailing\n"
        "b = 2 # trailing hash\n");
    EXPECT_EQ(cfg.getCount("", "a"), 1u);
    EXPECT_EQ(cfg.getCount("", "b"), 2u);
}

TEST(Config, WhitespaceTolerant)
{
    Config cfg = Config::fromString("  [ sec ]  \n  key =   value  \n");
    EXPECT_EQ(cfg.getString("sec", "key"), "value");
}

TEST(Config, MissingKeyThrows)
{
    Config cfg = Config::fromString("[s]\na = 1\n");
    EXPECT_THROW(cfg.getString("s", "b"), FatalError);
    EXPECT_THROW(cfg.getDouble("other", "a"), FatalError);
}

TEST(Config, DefaultsReturned)
{
    // An absent key leaves the field, and so its default, untouched.
    Config cfg = Config::fromString("[s]\na = 1\n");
    double d = 3.5;
    std::string str = "dflt";
    std::uint64_t n = 9;
    bool b = true;
    EXPECT_FALSE(cfg.read("s", "missing", d));
    EXPECT_FALSE(cfg.read("s", "missing", str));
    EXPECT_FALSE(cfg.read("s", "missing", n));
    EXPECT_FALSE(cfg.read("s", "missing", b));
    EXPECT_DOUBLE_EQ(d, 3.5);
    EXPECT_EQ(str, "dflt");
    EXPECT_EQ(n, 9u);
    EXPECT_TRUE(b);
}

TEST(Config, BooleanValues)
{
    Config cfg = Config::fromString("on = yes\noff = 0\n");
    EXPECT_TRUE(cfg.getBool("", "on"));
    EXPECT_FALSE(cfg.getBool("", "off"));
}

TEST(Config, SyntaxErrors)
{
    EXPECT_THROW(Config::fromString("[unterminated\n"), FatalError);
    EXPECT_THROW(Config::fromString("[]\n"), FatalError);
    EXPECT_THROW(Config::fromString("novalue\n"), FatalError);
    EXPECT_THROW(Config::fromString("= bare\n"), FatalError);
}

TEST(Config, DuplicateKeyLastWins)
{
    LogLevel prev = setLogLevel(LogLevel::Silent);
    Config cfg = Config::fromString("a = 1\na = 2\n");
    setLogLevel(prev);
    EXPECT_EQ(cfg.getCount("", "a"), 2u);
}

TEST(Config, SectionsAndKeysPreserveOrder)
{
    Config cfg = Config::fromString("[b]\nz=1\na=2\n[a]\nk=3\n");
    auto secs = cfg.sections();
    ASSERT_EQ(secs.size(), 2u);
    EXPECT_EQ(secs[0], "b");
    EXPECT_EQ(secs[1], "a");
    auto keys = cfg.keys("b");
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "z");
    EXPECT_EQ(keys[1], "a");
}

TEST(Config, SetInsertsAndOverwrites)
{
    Config cfg;
    cfg.set("s", "k", "v1");
    cfg.set("s", "k", "v2");
    EXPECT_EQ(cfg.getString("s", "k"), "v2");
    EXPECT_EQ(cfg.keys("s").size(), 1u);
}

TEST(Config, FromFileRoundTrip)
{
    std::string path = testing::TempDir() + "/accel_config_test.ini";
    {
        std::ofstream out(path);
        out << "[case]\nC = 2.5e9\nthreading = sync-os\n";
    }
    Config cfg = Config::fromFile(path);
    EXPECT_DOUBLE_EQ(cfg.getDouble("case", "C"), 2.5e9);
    EXPECT_EQ(cfg.getString("case", "threading"), "sync-os");
    std::remove(path.c_str());
}

TEST(Config, FromFileMissingThrows)
{
    EXPECT_THROW(Config::fromFile("/nonexistent/path.ini"), FatalError);
}

TEST(Config, KeysOfUnknownSectionEmpty)
{
    Config cfg = Config::fromString("[s]\na=1\n");
    EXPECT_TRUE(cfg.keys("nope").empty());
}

TEST(Config, UnusedKeysTracksProbes)
{
    Config cfg = Config::fromString("[s]\na = 1\nb = 2\nc = 3\n");
    // Nothing probed yet: every key is unused, in insertion order.
    auto unused = cfg.unusedKeys("s");
    ASSERT_EQ(unused.size(), 3u);
    EXPECT_EQ(unused[0], "a");
    EXPECT_EQ(unused[1], "b");
    EXPECT_EQ(unused[2], "c");

    cfg.getCount("s", "b"); // get() marks accessed
    cfg.has("s", "c");      // a bare existence probe counts too
    unused = cfg.unusedKeys("s");
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "a");
}

TEST(Config, UnusedKeysIgnoresProbesForAbsentKeys)
{
    Config cfg = Config::fromString("[s]\na = 1\n");
    // Probing a key that is not there must not mark anything.
    EXPECT_FALSE(cfg.has("s", "zzz"));
    std::uint64_t field = 7;
    cfg.read("s", "zzz", field);
    auto unused = cfg.unusedKeys("s");
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "a");
}

TEST(Config, UnusedKeysScopedToSection)
{
    Config cfg = Config::fromString("[x]\na = 1\n[y]\na = 2\n");
    cfg.getCount("x", "a");
    EXPECT_TRUE(cfg.unusedKeys("x").empty());
    ASSERT_EQ(cfg.unusedKeys("y").size(), 1u);
    EXPECT_TRUE(cfg.unusedKeys("nope").empty());
}

TEST(Config, FromStringStartsWithNoAccesses)
{
    // The parser's own duplicate-detection probes must not leak into
    // the access record handed to unknown-key validation.
    LogLevel prev = setLogLevel(LogLevel::Silent);
    Config cfg = Config::fromString("[s]\na = 1\na = 2\nb = 3\n");
    setLogLevel(prev);
    EXPECT_EQ(cfg.unusedKeys("s").size(), 2u);
}

TEST(Config, ReadParsesEachFieldType)
{
    Config cfg = Config::fromString(
        "[s]\nd = 2.5\nn = 4294967295\nw = 1e12\nb = off\nt = x y\n");
    double d = 1.0;
    std::uint32_t n = 3;
    std::uint64_t w = 9;
    bool b = true;
    std::string t;
    EXPECT_TRUE(cfg.read("s", "d", d));
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_TRUE(cfg.read("s", "n", n));
    EXPECT_EQ(n, 4294967295u);
    EXPECT_TRUE(cfg.read("s", "w", w));
    EXPECT_EQ(w, 1000000000000u);
    EXPECT_TRUE(cfg.read("s", "b", b));
    EXPECT_FALSE(b);
    EXPECT_TRUE(cfg.read("s", "t", t));
    EXPECT_EQ(t, "x y");
}

TEST(Config, ReadRangeChecksAndNamesKeyAndSection)
{
    Config cfg = Config::fromString(
        "[s]\nbig = 4294967296\nfrac = 2.5\nneg = -1\nword = fast\n");
    for (const char *key : {"big", "frac", "neg", "word"}) {
        std::uint32_t field = 5;
        try {
            cfg.read("s", key, field);
            ADD_FAILURE() << key << " accepted as " << field;
        } catch (const FatalError &err) {
            std::string msg = err.what();
            EXPECT_NE(msg.find("'" + std::string(key) + "'"),
                      std::string::npos) << msg;
            EXPECT_NE(msg.find("[s]"), std::string::npos) << msg;
        }
        EXPECT_EQ(field, 5u);
    }
    EXPECT_THROW(cfg.getCount("s", "neg"), FatalError);
    try {
        cfg.getDouble("s", "word");
        ADD_FAILURE() << "malformed double accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("'word' in [s]"),
                  std::string::npos) << err.what();
    }
}

} // namespace
} // namespace accel
