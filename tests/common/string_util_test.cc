#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace crowdsky {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// ParseDouble as it was defined before the from_chars fast path: a heap
/// copy of the trimmed text and strtod, with ERANGE always OutOfRange.
Result<double> StrtodReference(std::string_view input) {
  const std::string buf(TrimWhitespace(input));
  if (buf.empty()) {
    return Status::InvalidArgument("cannot parse empty string as double");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("double out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("trailing characters in double: '" + buf +
                                   "'");
  }
  return value;
}

/// ParseDouble must agree with StrtodReference in value bits and status
/// code, except that a subnormal (which glibc flags with ERANGE) now parses
/// to strtod's exact value.
void ExpectMatchesReference(const std::string& text) {
  SCOPED_TRACE("input '" + text + "'");
  const Result<double> got = ParseDouble(text);
  const Result<double> want = StrtodReference(text);
  if (want.status().IsOutOfRange()) {
    const std::string trimmed(TrimWhitespace(text));
    const double value = std::strtod(trimmed.c_str(), nullptr);
    if (value != 0 && std::isfinite(value)) {
      ASSERT_EQ(std::fpclassify(value), FP_SUBNORMAL);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Bits(*got), Bits(value));
      return;
    }
  }
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(Bits(*got), Bits(*want));
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

TEST(SplitStringTest, Basic) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  const auto parts = SplitString(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, NoDelimiter) {
  const auto parts = SplitString("plain", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "plain");
}

TEST(SplitStringTest, EmptyInput) {
  const auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace("nochange"), "nochange");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" a b "), "a b");
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").ValueOrDie(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("  7 ").ValueOrDie(), 7.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").ValueOrDie(), 0.0);
}

TEST(ParseDoubleTest, InvalidInputs) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("1e999999").ok());
}

TEST(ParseDoubleTest, AgreesWithStrtodOnTheEdgeCorpus) {
  const std::vector<std::string> corpus = {
      // Syntax only strtod accepts.
      "+1.5", "+0", "+inf", "0x1p3", "-0x1.8p1", "0X1P-2", "0x1p99999",
      "0x1p-1080", "0x1p-1200", "+1e-320", "+1e-400",
      // Shapes both accept.
      ".5", "-.5", "5.", "-5.", "0", "-0", "00012", "1E5", "1.0e+10",
      "0.0e-999999", "inf", "-inf", "INF", "infinity", "-Infinity", "nan",
      "-nan", "NaN", "nan(123)", "nan()",
      // Whitespace, including a CRLF line's '\r'.
      " 7 ", "\t3.25\r", "1.5\r\n", "\v2\f", "\r", " -0.25\r",
      // Overflow and underflow to zero stay OutOfRange.
      "1e999", "-1e999", "1e+400", "1.7976931348623159e308", "1e-400",
      "-1e-400", "2.4703282292062327e-324",
      // Boundaries that stay in range; subnormals now parse.
      "1.7976931348623157e308", "-1.7976931348623157e308",
      "2.2250738585072014e-308", "2.2250738585072009e-308",
      "4.9406564584124654e-324", "-4.9406564584124654e-324",
      "2.4703282292062328e-324", "1e-320", "-1e-320",
      // Refused.
      "", "   ", "abc", "1.5x", "1e", "1e+", "-", "+", ".", "e5", "1,5",
      "1 2", "1_000", "0x", "--1", "+-1", "1e5.5", "inf1", "nanx"};
  for (const std::string& text : corpus) ExpectMatchesReference(text);
}

TEST(ParseDoubleTest, AgreesWithStrtodOnSeventeenDigitRandoms) {
  Rng rng(20261018);
  for (int i = 0; i < 20000; ++i) {
    // A random 17-digit mantissa with an exponent that reaches past both
    // ends of the double range, so overflow, subnormals and underflow to
    // zero all occur.
    std::string text = rng.Bernoulli(0.5) ? "-" : "";
    text += static_cast<char>('1' + rng.NextBounded(9));
    text += '.';
    for (int d = 0; d < 16; ++d) {
      text += static_cast<char>('0' + rng.NextBounded(10));
    }
    text += 'e' + std::to_string(rng.UniformInt(-330, 312));
    ExpectMatchesReference(text);
    if (HasFatalFailure()) return;
  }
}

TEST(ParseDoubleTest, ReadsBackEveryPrintfValueBitExactly) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double v = FromBits(rng.Next());
    if (!std::isfinite(v)) continue;
    const Result<double> got = ParseDouble(Printf17g(v));
    ASSERT_TRUE(got.ok()) << Printf17g(v) << ": " << got.status().ToString();
    ASSERT_EQ(Bits(*got), Bits(v)) << Printf17g(v);
  }
}

TEST(ParseDoubleTest, SubnormalsParseBitExactly) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(Bits(ParseDouble("4.9406564584124654e-324").ValueOrDie()),
            Bits(denorm_min));
  EXPECT_EQ(Bits(ParseDouble("-4.9406564584124654e-324").ValueOrDie()),
            Bits(-denorm_min));
  EXPECT_EQ(Bits(ParseDouble("+4.9406564584124654e-324").ValueOrDie()),
            Bits(denorm_min));
  EXPECT_EQ(Bits(ParseDouble("2.2250738585072009e-308").ValueOrDie()),
            0x000fffffffffffffULL);
  EXPECT_TRUE(ParseDouble("1e-400").status().IsOutOfRange());
  EXPECT_TRUE(ParseDouble("1e999").status().IsOutOfRange());
}

TEST(AppendDoubleTest, MatchesPrintfOnSpecialValues) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> values = {
      0.0, -0.0, Limits::denorm_min(), -Limits::denorm_min(),
      FromBits(0x000fffffffffffffULL), Limits::min(), -Limits::min(),
      Limits::max(), Limits::lowest(), Limits::infinity(),
      -Limits::infinity(), Limits::quiet_NaN(), -Limits::quiet_NaN(), 0.1,
      1.0 / 3.0, 1.0, -1.0, 1e15, 1e16, 1e17, 1e-4, 1e-5, 123456789.123456789,
      0.5, 100.0, 12345678901234567890.0};
  for (const double v : values) {
    std::string out;
    AppendDouble(&out, v);
    EXPECT_EQ(out, Printf17g(v)) << "bits " << Bits(v);
  }
}

TEST(AppendDoubleTest, MatchesPrintfOnRandomValues) {
  Rng rng(31);
  int finite = 0;
  std::string out;
  while (finite < 100000) {
    const double v = FromBits(rng.Next());
    if (!std::isfinite(v)) continue;
    ++finite;
    out.clear();
    AppendDouble(&out, v);
    ASSERT_EQ(out, Printf17g(v)) << "bits " << Bits(v);
  }
  // Values shaped like generated datasets take the fixed-point branch of
  // %g, which random bit patterns rarely reach.
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.Uniform(0, 1) * (i % 2 == 0 ? 1.0 : 1e6);
    out.clear();
    AppendDouble(&out, v);
    ASSERT_EQ(out, Printf17g(v)) << "bits " << Bits(v);
  }
}

TEST(AppendDoubleTest, AppendsToExistingContent) {
  std::string out = "x=";
  AppendDouble(&out, 1.5);
  out += ',';
  AppendDouble(&out, -2.0);
  EXPECT_EQ(out, "x=1.5,-2");
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-17").ValueOrDie(), -17);
  EXPECT_EQ(ParseInt64(" 0 ").ValueOrDie(), 0);
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(JoinStringsTest, Basic) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(StringFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StringFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StringFormat("%s", "plain"), "plain");
  EXPECT_EQ(StringFormat("empty"), "empty");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_FALSE(StartsWith("xbc", "ab"));
}

}  // namespace
}  // namespace crowdsky
