#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/json.hpp"

namespace evm::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(Json::parse("42")->as_double(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2")->as_double(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, ObjectAndArray) {
  auto parsed = Json::parse(R"({"a": [1, 2, 3], "b": {"c": "x"}, "d": null})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const Json& root = *parsed;
  ASSERT_TRUE(root.is_object());
  const Json* a = root.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->at(1).as_double(), 2.0);
  EXPECT_TRUE(a->at(99).is_null());  // out of range -> null sentinel
  const Json* b = root.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->find("c")->as_string(), "x");
  EXPECT_TRUE(root.find("d")->is_null());
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  auto parsed = Json::parse(R"("line\n\ttab \"q\" \\ \u0041 \u00e9")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "line\n\ttab \"q\" \\ A \xc3\xa9");
}

TEST(JsonParse, SurrogatePair) {
  auto parsed = Json::parse(R"("\ud83d\ude00")");  // U+1F600
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, Whitespace) {
  auto parsed = Json::parse(" \n\t{ \"k\" :\r [ ] } \n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->find("k")->is_array());
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1, 2",       // unterminated array
      "{\"a\" 1}",   // missing colon
      "{\"a\": 1,}", // trailing comma -> expected key
      "tru",         // bad literal
      "\"abc",       // unterminated string
      "1 2",         // trailing garbage
      "{\"a\": 1} x",
      "nan",
      "\"\\q\"",     // unknown escape
  };
  for (const char* text : bad) {
    auto parsed = Json::parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_NE(parsed.status().message().find("byte"), std::string::npos);
  }
}

TEST(JsonParse, DeepNestingRejected) {
  std::string text(200, '[');
  auto parsed = Json::parse(text);
  EXPECT_FALSE(parsed.ok());
}

// The parser promises *positioned* errors: each case pins the exact byte
// offset the diagnostic must carry, so error positions are contract, not
// decoration.
TEST(JsonParse, ErrorOffsetsAreExact) {
  struct Case {
    std::string text;
    const char* offset_token;  // "at byte N:" expected in the message
    const char* what;
  };
  const Case cases[] = {
      {"", "at byte 0:", "empty document"},
      {"{\"a\": 1", "at byte 7:", "truncated object"},
      {"[1, 2", "at byte 5:", "truncated array"},
      {"{\"a\": \"xy", "at byte 9:", "truncated string"},
      {"\"ab\\", "at byte 4:", "truncated escape"},
      {"{\"a\" 1}", "at byte 5:", "missing colon"},
      {"[1, 2] []", "at byte 7:", "trailing garbage"},
  };
  for (const auto& c : cases) {
    auto parsed = Json::parse(c.text);
    ASSERT_FALSE(parsed.ok()) << c.what;
    EXPECT_NE(parsed.status().message().find(c.offset_token), std::string::npos)
        << c.what << ": " << parsed.status().message();
  }
}

TEST(JsonParse, DeepNestingErrorPointsAtLimitByte) {
  // kMaxDepth is 64: the 65th opening bracket trips the limit, so the
  // error lands at byte 65 (one past the 65 consumed brackets).
  auto parsed = Json::parse(std::string(200, '['));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("nesting too deep"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("at byte 65:"), std::string::npos)
      << parsed.status().message();
}

TEST(JsonParse, NestingAtTheLimitIsAccepted) {
  const std::string text = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(Json::parse(text).ok());
}

TEST(JsonParse, DuplicateKeysLastWins) {
  auto parsed = Json::parse(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  // Json::set replaces on duplicate, so the member count stays 2 and the
  // later value is the one observed — document order preserved otherwise.
  ASSERT_EQ(parsed->members().size(), 2u);
  EXPECT_EQ(parsed->members()[0].first, "a");
  EXPECT_DOUBLE_EQ(parsed->find("a")->as_double(), 3.0);
  EXPECT_DOUBLE_EQ(parsed->find("b")->as_double(), 2.0);
}

TEST(JsonParse, NonUtf8BytesRejectedAtOffendingByte) {
  struct Case {
    std::string text;
    const char* offset_token;
    const char* what;
  };
  const Case cases[] = {
      {"\"ab\xFFzz\"", "at byte 3:", "0xFF is never valid in UTF-8"},
      {"\"\x80\"", "at byte 1:", "stray continuation byte"},
      {"\"\xC3\"", "at byte 1:", "2-byte lead with no continuation"},
      {"\"\xC3(\"", "at byte 1:", "2-byte lead with bad continuation"},
      {"\"\xC0\xAF\"", "at byte 1:", "overlong lead 0xC0"},
      {"\"\xE2\x28\xA1\"", "at byte 1:", "3-byte lead with bad continuation"},
      {"\"\xF5\x80\x80\x80\"", "at byte 1:", "lead above U+10FFFF"},
      {"\"\xED\xA0\x80\"", "at byte 1:", "encoded surrogate U+D800"},
      {"\"\xE0\x80\x80\"", "at byte 1:", "overlong 3-byte U+0000"},
      {"\"\xF0\x80\x80\x80\"", "at byte 1:", "overlong 4-byte U+0000"},
      {"\"\xF4\x90\x80\x80\"", "at byte 1:", "U+110000, above the ceiling"},
  };
  for (const auto& c : cases) {
    auto parsed = Json::parse(c.text);
    ASSERT_FALSE(parsed.ok()) << c.what;
    EXPECT_NE(parsed.status().message().find("invalid UTF-8"), std::string::npos)
        << c.what << ": " << parsed.status().message();
    EXPECT_NE(parsed.status().message().find(c.offset_token), std::string::npos)
        << c.what << ": " << parsed.status().message();
  }
}

TEST(JsonParse, ValidUtf8PassesThroughVerbatim) {
  auto parsed = Json::parse("\"caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->as_string(), "caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");
  // Boundary sequences next to the tightened second-byte ranges.
  EXPECT_TRUE(Json::parse("\"\xE0\xA0\x80\"").ok());      // U+0800, smallest 3-byte
  EXPECT_TRUE(Json::parse("\"\xED\x9F\xBF\"").ok());      // U+D7FF, below surrogates
  EXPECT_TRUE(Json::parse("\"\xEE\x80\x80\"").ok());      // U+E000, above surrogates
  EXPECT_TRUE(Json::parse("\"\xF0\x90\x80\x80\"").ok());  // U+10000, smallest 4-byte
  EXPECT_TRUE(Json::parse("\"\xF4\x8F\xBF\xBF\"").ok());  // U+10FFFF, the ceiling
}

TEST(JsonRoundTrip, DumpThenParse) {
  Json root = Json::object();
  root.set("name", "scenario \"x\"\n");
  root.set("count", 3);
  root.set("ratio", 0.25);
  root.set("flag", true);
  root.set("nothing", Json());
  Json list = Json::array();
  list.push(1).push("two").push(Json::object().set("k", false));
  root.set("list", std::move(list));

  auto parsed = Json::parse(root.dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->dump(), root.dump());
  EXPECT_EQ(parsed->find("name")->as_string(), "scenario \"x\"\n");
  EXPECT_EQ(parsed->find("list")->at(2).find("k")->as_bool(true), false);
}

TEST(JsonRoundTrip, InsertionOrderPreserved) {
  auto parsed = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->members().size(), 3u);
  EXPECT_EQ(parsed->members()[0].first, "z");
  EXPECT_EQ(parsed->members()[1].first, "a");
  EXPECT_EQ(parsed->members()[2].first, "m");
}

TEST(JsonFile, LoadMissingFileIsNotFound) {
  auto loaded = load_json_file("/nonexistent/path.json");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(JsonFile, LoadDirectoryIsRejectedByName) {
  auto loaded = load_json_file(::testing::TempDir());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("is a directory"), std::string::npos)
      << loaded.status().to_string();
}

TEST(JsonFile, LoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "evm_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"answer": 42})";
  }
  auto loaded = load_json_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->find("answer")->as_int(), 42);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace evm::util
