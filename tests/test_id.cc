// Identifier semantics: digit extraction, prefixes, salting, spec handling.
#include "src/tapestry/id.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/assert.h"
#include "src/common/rng.h"

namespace tap {
namespace {

TEST(IdSpec, ValidityRules) {
  EXPECT_TRUE((IdSpec{4, 10}.valid()));
  EXPECT_TRUE((IdSpec{1, 64}.valid()));
  EXPECT_TRUE((IdSpec{6, 10}.valid()));    // radix 64: one-word rows
  EXPECT_FALSE((IdSpec{0, 10}.valid()));   // zero-width digits
  EXPECT_FALSE((IdSpec{4, 0}.valid()));    // no digits
  EXPECT_FALSE((IdSpec{6, 11}.valid()));   // 66 bits > 64
  EXPECT_FALSE((IdSpec{7, 8}.valid()));    // radix 128 > 64
  EXPECT_FALSE((IdSpec{8, 8}.valid()));    // radix 256 > 64
  EXPECT_FALSE((IdSpec{9, 4}.valid()));    // digit wider than a byte
  EXPECT_THROW(Id(IdSpec{7, 8}, 0), CheckError);
  // The namespace bound every id value must fit under.
  EXPECT_EQ((IdSpec{4, 8}.mask()), 0xffffffffull);
  EXPECT_EQ((IdSpec{4, 16}.mask()), ~std::uint64_t{0});
  EXPECT_EQ((IdSpec{6, 10}.mask()), (std::uint64_t{1} << 60) - 1);
  EXPECT_EQ((IdSpec{1, 1}.mask()), 1u);
  EXPECT_NO_THROW(Id(IdSpec{4, 8}, 0xffffffffull));
  EXPECT_THROW(Id(IdSpec{4, 8}, 0x100000000ull), CheckError);
}

TEST(IdSpec, DerivedQuantities) {
  const IdSpec spec{4, 10};
  EXPECT_EQ(spec.radix(), 16u);
  EXPECT_EQ(spec.total_bits(), 40u);
}

TEST(Id, DefaultConstructedIsInvalid) {
  const Id id;
  EXPECT_FALSE(id.valid());
}

TEST(Id, DigitExtractionMostSignificantFirst) {
  const IdSpec spec{4, 4};
  const Id id(spec, 0x1A2Fu);
  EXPECT_EQ(id.digit(0), 0x1u);
  EXPECT_EQ(id.digit(1), 0xAu);
  EXPECT_EQ(id.digit(2), 0x2u);
  EXPECT_EQ(id.digit(3), 0xFu);
}

TEST(Id, DigitExtractionNonNibbleRadix) {
  const IdSpec spec{3, 5};  // radix 8, 15 bits
  const Id id(spec, 0b101'110'000'011'111u);
  EXPECT_EQ(id.digit(0), 0b101u);
  EXPECT_EQ(id.digit(1), 0b110u);
  EXPECT_EQ(id.digit(2), 0b000u);
  EXPECT_EQ(id.digit(3), 0b011u);
  EXPECT_EQ(id.digit(4), 0b111u);
}

TEST(Id, ValueRangeChecked) {
  const IdSpec spec{4, 4};  // 16 bits
  EXPECT_NO_THROW(Id(spec, 0xFFFFu));
  EXPECT_THROW(Id(spec, 0x10000u), CheckError);
}

TEST(Id, PrefixMatching) {
  const IdSpec spec{4, 4};
  const Id a(spec, 0x12ABu);
  const Id b(spec, 0x12CDu);
  EXPECT_TRUE(a.matches_prefix(b, 0));
  EXPECT_TRUE(a.matches_prefix(b, 1));
  EXPECT_TRUE(a.matches_prefix(b, 2));
  EXPECT_FALSE(a.matches_prefix(b, 3));
  EXPECT_FALSE(a.matches_prefix(b, 4));
}

TEST(Id, CommonPrefixLen) {
  const IdSpec spec{4, 4};
  EXPECT_EQ(Id(spec, 0x1234u).common_prefix_len(Id(spec, 0x1234u)), 4u);
  EXPECT_EQ(Id(spec, 0x1234u).common_prefix_len(Id(spec, 0x1235u)), 3u);
  EXPECT_EQ(Id(spec, 0x1234u).common_prefix_len(Id(spec, 0x1934u)), 1u);
  EXPECT_EQ(Id(spec, 0x1234u).common_prefix_len(Id(spec, 0x9234u)), 0u);
}

TEST(Id, PrefixValue) {
  const IdSpec spec{4, 4};
  const Id id(spec, 0x1A2Fu);
  EXPECT_EQ(id.prefix_value(0), 0u);
  EXPECT_EQ(id.prefix_value(1), 0x1u);
  EXPECT_EQ(id.prefix_value(2), 0x1Au);
  EXPECT_EQ(id.prefix_value(4), 0x1A2Fu);
}

TEST(Id, WithDigitReplacesExactlyOne) {
  const IdSpec spec{4, 4};
  const Id id(spec, 0x1234u);
  EXPECT_EQ(id.with_digit(0, 0xF).value(), 0xF234u);
  EXPECT_EQ(id.with_digit(2, 0x0).value(), 0x1204u);
  EXPECT_EQ(id.with_digit(3, 0xB).value(), 0x123Bu);
  EXPECT_THROW((void)id.with_digit(1, 16), CheckError);
}

TEST(Id, ToStringHex) {
  const IdSpec spec{4, 4};
  EXPECT_EQ(Id(spec, 0x1A2Fu).to_string(), "1A2F");
  EXPECT_EQ(Id().to_string(), "<invalid>");
}

TEST(Id, ToStringWideDigits) {
  const IdSpec spec{5, 3};  // radix 32
  const Id id(spec, (7u << 10) | (31u << 5) | 1u);
  EXPECT_EQ(id.to_string(), "7.31.1");
}

TEST(Id, OrderingIsByValue) {
  const IdSpec spec{4, 4};
  EXPECT_LT(Id(spec, 1), Id(spec, 2));
  EXPECT_FALSE(Id(spec, 2) < Id(spec, 2));
}

TEST(Id, RandomIsUniformAcrossFirstDigit) {
  const IdSpec spec{4, 8};
  Rng rng(7);
  std::vector<int> counts(16, 0);
  constexpr int kDraws = 16000;
  for (int i = 0; i < kDraws; ++i) ++counts[Id::random(spec, rng).digit(0)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 16 / 2);
    EXPECT_LT(c, kDraws / 16 * 2);
  }
}

TEST(Id, RandomRespectsNamespaceMask) {
  const IdSpec spec{4, 4};
  Rng rng(9);
  for (int i = 0; i < 1000; ++i)
    EXPECT_LT(Id::random(spec, rng).value(), 0x10000u);
}

TEST(SaltedGuid, SaltZeroIsIdentity) {
  const IdSpec spec{4, 8};
  Rng rng(3);
  const Guid g = Id::random(spec, rng);
  EXPECT_EQ(salted_guid(g, 0), g);
}

TEST(SaltedGuid, DistinctSaltsGiveDistinctNames) {
  const IdSpec spec{4, 8};
  Rng rng(4);
  const Guid g = Id::random(spec, rng);
  std::set<std::uint64_t> seen;
  for (unsigned salt = 0; salt < 16; ++salt)
    seen.insert(salted_guid(g, salt).value());
  EXPECT_EQ(seen.size(), 16u);
}

TEST(SaltedGuid, DeterministicAcrossCalls) {
  const IdSpec spec{4, 8};
  const Guid g(spec, 0x12345678u);
  EXPECT_EQ(salted_guid(g, 3), salted_guid(g, 3));
}

TEST(SaltedGuid, StaysInNamespace) {
  const IdSpec spec{4, 4};
  const Guid g(spec, 0x1234u);
  for (unsigned salt = 0; salt < 64; ++salt)
    EXPECT_LT(salted_guid(g, salt).value(), 0x10000u);
}

TEST(IdHash, UsableInUnorderedContainers) {
  const IdSpec spec{4, 8};
  std::hash<Id> h;
  EXPECT_EQ(h(Id(spec, 42)), h(Id(spec, 42)));
  EXPECT_NE(h(Id(spec, 42)), h(Id(spec, 43)));
}

}  // namespace
}  // namespace tap
