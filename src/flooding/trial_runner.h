// Parallel driver for independent simulation trials.
//
// Every flooding experiment has the same outer shape: T independent
// trials, each a deterministic simulation driven by its own generator,
// folded into one aggregate.  TrialRunner fans the trials across
// core::parallel with the cut_census seeding pattern — trial t always
// draws from Rng::stream(seed, t), and per-trial results merge in
// trial order — so every aggregate is identical at every thread count
// and bit-identical to the serial loop at LHG_THREADS=1.

#pragma once

#include <cstdint>
#include <utility>

#include "core/parallel.h"
#include "core/rng.h"

namespace lhg::flooding {

struct TrialRunner {
  /// Base seed; trial t draws from the private Rng::stream(seed, t).
  std::uint64_t seed = 1;
  /// Trials per scheduling chunk.  One trial is a whole simulation, so
  /// one per chunk keeps the load balanced even when trial costs vary
  /// (e.g. adversarial vs random failure patterns).
  static constexpr std::int64_t kGrain = 1;

  /// Runs `trial(t, rng)` for t in [0, trials) and folds the returned
  /// aggregates with `combine(acc, partial)` in trial order, starting
  /// from `identity`.  `combine` must be associative over adjacent
  /// partials and satisfy combine(identity, x) == x (sums, min/max and
  /// counters all do); the result is then independent of the thread
  /// count and chunk schedule.
  template <typename T, typename TrialFn, typename Combine>
  T run(std::int64_t trials, T identity, TrialFn&& trial,
        Combine&& combine) const {
    return core::parallel_reduce<T>(
        trials, kGrain, identity,
        [&](std::int64_t begin, std::int64_t end, int /*lane*/) {
          T chunk = identity;
          for (std::int64_t t = begin; t < end; ++t) {
            core::Rng rng =
                core::Rng::stream(seed, static_cast<std::uint64_t>(t));
            chunk = combine(std::move(chunk), trial(t, rng));
          }
          return chunk;
        },
        combine);
  }
};

}  // namespace lhg::flooding
