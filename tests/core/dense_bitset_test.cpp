#include "core/dense_bitset.hpp"

#include <gtest/gtest.h>

namespace dtncache::core {
namespace {

TEST(DenseBitset, SpanIsOnePastTheHighestSetBit) {
  DenseBitset bits;
  EXPECT_EQ(bits.span(), 0u);
  bits.set(5);
  EXPECT_EQ(bits.span(), 6u);
  bits.set(63);
  EXPECT_EQ(bits.span(), 64u);
  bits.set(64);
  EXPECT_EQ(bits.span(), 65u);
  bits.set(5000);  // grows the words well past the bit
  EXPECT_EQ(bits.span(), 5001u);
  bits.reset(5000);
  EXPECT_EQ(bits.span(), 65u);
}

}  // namespace
}  // namespace dtncache::core
