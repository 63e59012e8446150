#include "config/param_space.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>

#include "common/require.hpp"

namespace adse::config {
namespace {

TEST(ParamSpec, Pow2Values) {
  const ParameterSpace space;
  const auto values = space.spec(ParamId::kVectorLength).values();
  EXPECT_EQ(values, (std::vector<double>{128, 256, 512, 1024, 2048}));
}

TEST(ParamSpec, LinearValuesWithExtraFloor) {
  const ParameterSpace space;
  const auto values = space.spec(ParamId::kGpRegisters).values();
  // Table II: "8 starting from 40", plus the minimum-viable 38.
  EXPECT_DOUBLE_EQ(values.front(), 38.0);
  EXPECT_DOUBLE_EQ(values[1], 40.0);
  EXPECT_DOUBLE_EQ(values[2], 48.0);
  EXPECT_DOUBLE_EQ(values.back(), 512.0);
}

TEST(ParamSpec, RobValuesStep4) {
  const ParameterSpace space;
  const auto values = space.spec(ParamId::kRobSize).values();
  EXPECT_DOUBLE_EQ(values.front(), 8.0);
  EXPECT_DOUBLE_EQ(values[1], 12.0);
  EXPECT_DOUBLE_EQ(values.back(), 512.0);
  EXPECT_EQ(values.size(), 127u);
}

TEST(ParamSpec, RealValuesThrow) {
  const ParameterSpace space;
  EXPECT_THROW(space.spec(ParamId::kL1Clock).values(), InvariantError);
}

TEST(ParamSpec, ContainsMembership) {
  const ParameterSpace space;
  const auto& vl = space.spec(ParamId::kVectorLength);
  EXPECT_TRUE(vl.contains(512));
  EXPECT_FALSE(vl.contains(384));
  const auto& clock = space.spec(ParamId::kL1Clock);
  EXPECT_TRUE(clock.contains(2.2));
  EXPECT_FALSE(clock.contains(0.1));
}

TEST(ParamSpec, SampleHonoursRaisedMinimum) {
  const ParameterSpace space;
  Rng rng(3);
  const auto& bw = space.spec(ParamId::kLoadBandwidth);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(bw.sample(rng, 256.0), 256.0);
  }
}

TEST(ParamSpec, SampleRaisedAboveMaxThrows) {
  const ParameterSpace space;
  Rng rng(3);
  EXPECT_THROW(space.spec(ParamId::kLoadBandwidth).sample(rng, 2048.0),
               InvariantError);
}

TEST(ParameterSpace, HasThirtySpecs) {
  const ParameterSpace space;
  EXPECT_EQ(space.specs().size(), kNumParams);
}

// Property: every sampled configuration is valid (500 draws).
TEST(ParameterSpace, SamplesAreAlwaysValid) {
  const ParameterSpace space;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const CpuConfig c = space.sample(rng);
    EXPECT_NO_THROW(validate(c)) << "draw " << i;
  }
}

// Property: the §V-A dependent bounds hold on every draw.
TEST(ParameterSpace, DependentBoundsHold) {
  const ParameterSpace space;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    const CpuConfig c = space.sample(rng);
    EXPECT_GE(c.core.load_bandwidth_bytes, c.core.vector_length_bits / 8);
    EXPECT_GE(c.core.store_bandwidth_bytes, c.core.vector_length_bits / 8);
    EXPECT_GT(c.mem.l2_size_kib, c.mem.l1_size_kib);
    EXPECT_GT(c.mem.l2_latency_cycles, c.mem.l1_latency_cycles);
  }
}

TEST(ParameterSpace, FixedVectorLengthConstraint) {
  const ParameterSpace space;
  Rng rng(11);
  SampleConstraints constraints;
  constraints.fixed_vector_length = 2048;
  for (int i = 0; i < 100; ++i) {
    const CpuConfig c = space.sample(rng, constraints);
    EXPECT_EQ(c.core.vector_length_bits, 2048);
    EXPECT_GE(c.core.load_bandwidth_bytes, 256);
  }
}

TEST(ParameterSpace, FixedVectorLengthMustBeInRange) {
  const ParameterSpace space;
  Rng rng(11);
  SampleConstraints constraints;
  constraints.fixed_vector_length = 384;
  EXPECT_THROW(space.sample(rng, constraints), InvariantError);
}

TEST(ParameterSpace, SamplingIsDeterministicPerSeed) {
  const ParameterSpace space;
  Rng a(5), b(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(feature_vector(space.sample(a)), feature_vector(space.sample(b)));
  }
}

TEST(ParameterSpace, SamplingCoversVectorLengths) {
  const ParameterSpace space;
  Rng rng(13);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(space.sample(rng).core.vector_length_bits);
  }
  EXPECT_EQ(seen.size(), 5u);  // all of {128..2048}
}

TEST(ParameterSpace, SamplingIsRoughlyUniformOverVl) {
  const ParameterSpace space;
  Rng rng(17);
  std::map<int, int> counts;
  const int n = 2000;
  for (int i = 0; i < n; ++i) counts[space.sample(rng).core.vector_length_bits]++;
  for (const auto& [vl, count] : counts) {
    EXPECT_NEAR(count, n / 5, n / 5 / 2) << "VL " << vl;
  }
}

TEST(ParamSpec, NeighborIsAnAdjacentMember) {
  const ParameterSpace space;
  Rng rng(21);
  const auto& rob = space.spec(ParamId::kRobSize);
  const auto values = rob.values();
  for (int i = 0; i < 200; ++i) {
    const double current = values[rng.index(values.size())];
    const double moved = rob.neighbor(current, rng);
    EXPECT_TRUE(rob.contains(moved));
    EXPECT_NEAR(std::abs(moved - current), rob.step, 1e-9);
  }
}

TEST(ParamSpec, NeighborHonoursRaisedMinimum) {
  const ParameterSpace space;
  Rng rng(22);
  const auto& bw = space.spec(ParamId::kLoadBandwidth);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(bw.neighbor(256.0, rng, 256.0), 256.0);
  }
  // Below the raised bound there is no admissible neighbour pair; the
  // smallest admissible value is returned.
  EXPECT_DOUBLE_EQ(bw.neighbor(16.0, rng, 256.0), 256.0);
}

TEST(ParamSpec, NeighborOfRealParamStaysInRange) {
  const ParameterSpace space;
  Rng rng(23);
  const auto& clock = space.spec(ParamId::kL1Clock);
  double current = 1.0;  // range edge: jitter must clamp
  for (int i = 0; i < 300; ++i) {
    current = clock.neighbor(current, rng);
    EXPECT_TRUE(clock.contains(current));
  }
}

TEST(ParamSpec, RaiseToReturnsSmallestAdmissibleValue) {
  const ParameterSpace space;
  EXPECT_DOUBLE_EQ(space.spec(ParamId::kLoadBandwidth).raise_to(96.0), 128.0);
  EXPECT_DOUBLE_EQ(space.spec(ParamId::kLoadBandwidth).raise_to(128.0), 128.0);
  EXPECT_DOUBLE_EQ(space.spec(ParamId::kRamLatency).raise_to(10.0), 60.0);
  EXPECT_THROW(space.spec(ParamId::kLoadBandwidth).raise_to(2048.0),
               InvariantError);
}

// Property: every mutant of a valid configuration is valid (local search
// must never propose an unsimulatable design).
TEST(ParameterSpace, MutantsAreAlwaysValid) {
  const ParameterSpace space;
  Rng rng(31);
  CpuConfig base = space.sample(rng);
  for (int i = 0; i < 500; ++i) {
    base = space.mutate(base, rng);  // chained: walks far from the seed
    EXPECT_NO_THROW(validate(base)) << "mutation " << i;
  }
}

TEST(ParameterSpace, MutantDiffersFromBase) {
  const ParameterSpace space;
  Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const CpuConfig base = space.sample(rng);
    const CpuConfig mutant = space.mutate(base, rng);
    EXPECT_NE(feature_vector(base), feature_vector(mutant));
  }
}

TEST(ParameterSpace, MutatePreservesPinnedVectorLength) {
  const ParameterSpace space;
  Rng rng(33);
  SampleConstraints constraints;
  constraints.fixed_vector_length = 1024;
  CpuConfig base = space.sample(rng, constraints);
  for (int i = 0; i < 200; ++i) {
    base = space.mutate(base, rng, 0.3, constraints);
    EXPECT_EQ(base.core.vector_length_bits, 1024);
    EXPECT_GE(base.core.load_bandwidth_bytes, 128);
  }
}

TEST(ParameterSpace, MutateRejectsBadRate) {
  const ParameterSpace space;
  Rng rng(34);
  const CpuConfig base = space.sample(rng);
  EXPECT_THROW(space.mutate(base, rng, 0.0), InvariantError);
  EXPECT_THROW(space.mutate(base, rng, 1.5), InvariantError);
}

// Parameterised property: each discrete spec's samples are members of its
// own value list.
class SpecSampleMembership : public ::testing::TestWithParam<int> {};

TEST_P(SpecSampleMembership, SamplesAreMembers) {
  const ParameterSpace space;
  const auto& spec = space.spec(static_cast<ParamId>(GetParam()));
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(spec.contains(spec.sample(rng))) << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllParams, SpecSampleMembership,
                         ::testing::Range(0, static_cast<int>(kNumParams)),
                         [](const auto& info) {
                           return param_name(static_cast<ParamId>(info.param));
                         });

TEST(ParameterSpace, PinnedSampleAndMutateDigest) {
  // Pinned on the rebuild-the-value-list implementation: 2,000 sample() and
  // mutate() feature vectors per constraint setting, hashed by raw bits.
  const ParameterSpace space;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](const CpuConfig& config) {
    for (const double v : feature_vector(config)) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int i = 0; i < 8; ++i) {
        digest ^= (bits >> (8 * i)) & 0xffU;
        digest *= 0x100000001b3ULL;
      }
    }
  };
  for (const std::optional<int> vl :
       {std::optional<int>{}, std::optional<int>{512}}) {
    SampleConstraints constraints;
    constraints.fixed_vector_length = vl;
    Rng rng(91);
    CpuConfig chain = space.sample(rng, constraints);
    for (int i = 0; i < 1000; ++i) {
      const CpuConfig drawn = space.sample(rng, constraints);
      mix(drawn);
      // Alternate fresh parents and a long mutation chain, which walks onto
      // repaired (raised or halved) values.
      const double rate = (i % 3 == 0) ? 0.2 : (i % 3 == 1 ? 0.5 : 1.0);
      chain = space.mutate(i % 2 == 0 ? drawn : chain, rng, rate, constraints);
      mix(chain);
    }
  }
  EXPECT_EQ(digest, 0xd3566f57e3ffa0f9ULL);
}

}  // namespace
}  // namespace adse::config
