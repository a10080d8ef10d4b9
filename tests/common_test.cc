#include <gtest/gtest.h>

#include "common/status.h"
#include "common/status_or.h"
#include "common/string_util.h"

namespace corrmine {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailingHelper() { return Status::IOError("disk"); }

Status UsesReturnNotOk() {
  CORRMINE_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UsesReturnNotOk().IsIOError());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> ProducesValue() { return 7; }

StatusOr<int> UsesAssignOrReturn() {
  CORRMINE_ASSIGN_OR_RETURN(int x, ProducesValue());
  return x + 1;
}

TEST(StatusOrTest, AssignOrReturnUnwraps) {
  auto result = UsesAssignOrReturn();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 8);
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 5);
}

TEST(StringUtilTest, SplitCollapsesDelimiterRuns) {
  auto pieces = SplitString("  a \t b  c ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtilTest, SplitEmptyYieldsNothing) {
  EXPECT_TRUE(SplitString("").empty());
  EXPECT_TRUE(SplitString("   ").empty());
}

TEST(StringUtilTest, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(TrimString("  x y\t\n"), "x y");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString("abc"), "abc");
}

TEST(StringUtilTest, ParseUint64Valid) {
  auto v = ParseUint64("12345");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 12345u);
  EXPECT_EQ(*ParseUint64("0"), 0u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
}

TEST(StringUtilTest, ParseUint64Rejects) {
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("12x").ok());
  EXPECT_FALSE(ParseUint64("-3").ok());
  EXPECT_TRUE(ParseUint64("18446744073709551616").status().IsOutOfRange());
}

TEST(StringUtilTest, ParseDoubleValidAndInvalid) {
  auto v = ParseDouble("2.5e3");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 2500.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2.3").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_TRUE(ParseDouble("1e999").status().IsOutOfRange());
  EXPECT_TRUE(ParseDouble("-1e999").status().IsOutOfRange());
}

TEST(StringUtilTest, ParseDoubleAcceptsUnderflow) {
  // strtod flags these with ERANGE, but they are valid subnormals.
  auto subnormal = ParseDouble("1.98e-323");
  ASSERT_TRUE(subnormal.ok()) << subnormal.status().ToString();
  EXPECT_EQ(*subnormal, 1.98e-323);
  EXPECT_GT(*subnormal, 0.0);
  auto to_zero = ParseDouble("1e-400");
  ASSERT_TRUE(to_zero.ok()) << to_zero.status().ToString();
  EXPECT_EQ(*to_zero, 0.0);
}

TEST(StringUtilTest, ToLowerAndJoin) {
  EXPECT_EQ(ToLowerAscii("AbC-9"), "abc-9");
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

}  // namespace
}  // namespace corrmine
