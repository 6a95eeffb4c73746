/// \file test_fluid_oracle.cpp
/// \brief Differential test of the dense flow table against the reference
/// fluid network.
///
/// sim::FluidNetwork keeps the active flows in a dense table with a cached
/// minimum; reference::FluidNetwork (fluid_reference.hpp) is the
/// straightforward per-id version it replaced.  Both are driven through the
/// same seeded random sequences of flow starts and advances, the way the
/// engine drives them: advances land on the next completion or on an
/// earlier timed event (or, uncontended, past it), and starts happen at the
/// current time.  Every step must report the same completions in the same
/// order and the same next_completion() bits.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference/fluid_reference.hpp"
#include "sim/fluid.hpp"

namespace cloudwf {
namespace {

struct Mode {
  const char* name;
  BytesPerSec aggregate;  // 0 = uncontended
};

// Without this gtest prints a Mode as its raw bytes, which hold the address
// of `name`; that address moves with each build and load, and so would the
// registered test names.
void PrintTo(const Mode& mode, std::ostream* os) { *os << mode.name; }

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// A flow size with frequent exact ties and a few zero-byte flows.
Bytes draw_size(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 0;
    case 1:
    case 2: return 1e6 * static_cast<double>(1 + rng.below(4));  // shared sizes
    default: return rng.uniform(1.0, 5e7);
  }
}

class FluidOracle : public ::testing::TestWithParam<Mode> {};

TEST_P(FluidOracle, DenseTableMatchesReference) {
  const Mode mode = GetParam();
  constexpr BytesPerSec kCap = 125e6;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::FluidNetwork dense(kCap, mode.aggregate);
    reference::FluidNetwork oracle(kCap, mode.aggregate);
    // The second half of the seeds reuses the table after a reset, as the
    // engine arena does.
    if (seed % 2 == 0) {
      (void)dense.start_flow(1e6, 0.0);
      (void)dense.advance(0.001);
      dense.reset();
    }
    Seconds now = 0;
    std::size_t completions = 0;
    for (int step = 0; step < 600; ++step) {
      const std::size_t active = oracle.active_count();
      // Every third seed starts far more than it completes (up to 200 flows).
      const std::uint64_t start_weight = seed % 3 == 0 ? 9 : 4;
      const bool start = active == 0 || (active < 200 && rng.below(10) < start_weight);
      if (start) {
        const Bytes bytes = draw_size(rng);
        ASSERT_EQ(dense.start_flow(bytes, now), oracle.start_flow(bytes, now));
      } else {
        // The next completion, a timed event before it or, where the rate
        // does not depend on the load, a late collection after it.
        const Seconds next = oracle.next_completion();
        const std::uint64_t pick = rng.below(6);
        if (pick < 4) {
          now = next;
        } else if (pick == 4 || mode.aggregate > 0) {
          now += (next - now) * rng.uniform();
        } else {
          now = next + rng.uniform(0.0, 0.5);
        }
        const std::vector<sim::FlowId>& got = dense.advance(now);
        const std::vector<sim::FlowId>& want = oracle.advance(now);
        ASSERT_EQ(got, want) << "step " << step << " at t=" << now;
        completions += want.size();
      }
      ASSERT_EQ(bits(dense.next_completion()), bits(oracle.next_completion())) << "step " << step;
      ASSERT_EQ(bits(dense.completed_bytes()), bits(oracle.completed_bytes())) << "step " << step;
      ASSERT_EQ(bits(dense.current_rate()), bits(oracle.current_rate())) << "step " << step;
      ASSERT_EQ(dense.active_count(), oracle.active_count()) << "step " << step;
      ASSERT_EQ(dense.peak_active(), oracle.peak_active()) << "step " << step;
    }
    EXPECT_GT(completions, 50u);
    if (seed % 3 == 0) {
      EXPECT_GE(oracle.peak_active(), 60u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FluidOracle,
                         ::testing::Values(Mode{"uncontended", 0.0},
                                           Mode{"contended", 2.0 * 125e6}),
                         [](const ::testing::TestParamInfo<Mode>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace cloudwf
