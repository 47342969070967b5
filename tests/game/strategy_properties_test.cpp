// Property/invariant harness for the strategy layer (PR 5 satellite).
//
// Strategies are specified as *pure functions* of (history, self); the
// properties below are checked over many deterministically seeded random
// histories instead of hand-picked fixtures:
//
//   * determinism — decide() twice on the same history gives the same
//     window, and a fresh instance agrees (no hidden internal state);
//   * window bounds — 1 <= decide() <= W_max whenever every observed
//     window respects the same bounds;
//   * TFT exactness — decide() == min over last-stage online windows;
//   * GTFT trigger semantics — reacts iff some online opponent's
//     r0-average is below beta x own average;
//   * forgiveness — on a clean history the contrite/forgiving windows
//     drift monotonically (never down) to the cooperative window;
//   * bounded walks — contrite-tft and forgiving-gtft decide exactly as
//     test-local copies of their former full-history clean-streak walks;
//   * filters — range-bounded, identity on constant series, reject
//     isolated outliers, and only the last `window` records matter.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "game/observation_filter.hpp"
#include "game/strategies.hpp"
#include "util/rng.hpp"

namespace smac::game {
namespace {

constexpr int kWMax = 64;

History random_history(util::Rng& rng, std::size_t players,
                       std::size_t stages) {
  History h;
  for (std::size_t s = 0; s < stages; ++s) {
    StageRecord r;
    for (std::size_t j = 0; j < players; ++j) {
      r.cw.push_back(static_cast<int>(rng.uniform_int(1, kWMax)));
    }
    r.utility.assign(players, 0.0);
    // Occasionally mark someone offline so the properties cover the
    // fault-aware online mask too.
    if (rng.uniform01() < 0.3) {
      r.online.assign(players, 1);
      r.online[rng.uniform_below(players)] = 0;
    }
    h.push_back(std::move(r));
  }
  return h;
}

std::vector<std::unique_ptr<Strategy>> all_strategies() {
  std::vector<std::unique_ptr<Strategy>> s;
  s.push_back(std::make_unique<TitForTat>(kWMax));
  s.push_back(std::make_unique<GenerousTitForTat>(kWMax, 0.9, 3));
  s.push_back(std::make_unique<ConstantStrategy>(kWMax / 2));
  s.push_back(std::make_unique<ShortSightedStrategy>(4));
  s.push_back(std::make_unique<ContriteTitForTat>(kWMax, 3));
  s.push_back(std::make_unique<ForgivingGtft>(kWMax, 0.9, 3, 2, 2));
  return s;
}

std::unique_ptr<Strategy> fresh_copy(const Strategy& s) {
  // Rebuild from the display name — the roster guarantees distinct names
  // for distinct configurations, so matching on it is unambiguous here.
  const std::string n = s.name();
  if (n == "tft") return std::make_unique<TitForTat>(kWMax);
  if (n.rfind("gtft(", 0) == 0) {
    return std::make_unique<GenerousTitForTat>(kWMax, 0.9, 3);
  }
  if (n.rfind("constant(", 0) == 0) {
    return std::make_unique<ConstantStrategy>(kWMax / 2);
  }
  if (n.rfind("short-sighted(", 0) == 0) {
    return std::make_unique<ShortSightedStrategy>(4);
  }
  if (n.rfind("contrite-tft(", 0) == 0) {
    return std::make_unique<ContriteTitForTat>(kWMax, 3);
  }
  if (n.rfind("forgiving-gtft(", 0) == 0) {
    return std::make_unique<ForgivingGtft>(kWMax, 0.9, 3, 2, 2);
  }
  ADD_FAILURE() << "no fresh_copy rule for " << n;
  return nullptr;
}

TEST(StrategyPropertyTest, DecideIsDeterministicAndStateless) {
  util::Rng rng(0x5eed0001ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t players = 2 + rng.uniform_below(5);
    const History h = random_history(rng, players, 1 + rng.uniform_below(12));
    const std::size_t self = rng.uniform_below(players);
    for (const auto& s : all_strategies()) {
      const int first = s->decide(h, self);
      // Same instance, same inputs: decide() must not depend on call count.
      EXPECT_EQ(s->decide(h, self), first) << s->name();
      // A fresh instance agrees: no hidden internal state accumulates.
      EXPECT_EQ(fresh_copy(*s)->decide(h, self), first) << s->name();
    }
  }
}

TEST(StrategyPropertyTest, WindowsStayInBounds) {
  util::Rng rng(0x5eed0002ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t players = 2 + rng.uniform_below(5);
    const History h = random_history(rng, players, 1 + rng.uniform_below(12));
    const std::size_t self = rng.uniform_below(players);
    for (const auto& s : all_strategies()) {
      EXPECT_GE(s->initial_cw(), 1) << s->name();
      EXPECT_LE(s->initial_cw(), kWMax) << s->name();
      const int w = s->decide(h, self);
      EXPECT_GE(w, 1) << s->name();
      EXPECT_LE(w, kWMax) << s->name();
    }
  }
}

TEST(StrategyPropertyTest, TftMatchesOnlineMinimumExactly) {
  util::Rng rng(0x5eed0003ULL);
  TitForTat tft(kWMax);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t players = 2 + rng.uniform_below(5);
    const History h = random_history(rng, players, 1 + rng.uniform_below(8));
    EXPECT_EQ(tft.decide(h, rng.uniform_below(players)), min_cw(h.back()));
  }
}

TEST(StrategyPropertyTest, GtftReactsIffAveragedTriggerFires) {
  util::Rng rng(0x5eed0004ULL);
  const double beta = 0.9;
  const int r0 = 3;
  GenerousTitForTat gtft(kWMax, beta, r0);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t players = 2 + rng.uniform_below(5);
    const History h = random_history(rng, players, 1 + rng.uniform_below(8));
    const std::size_t self = rng.uniform_below(players);
    // Recompute the spec's trigger independently of the implementation.
    const std::size_t stages = std::min<std::size_t>(r0, h.size());
    std::vector<double> avg(players, 0.0);
    for (std::size_t s = h.size() - stages; s < h.size(); ++s) {
      for (std::size_t j = 0; j < players; ++j) avg[j] += h[s].cw[j];
    }
    for (double& a : avg) a /= static_cast<double>(stages);
    bool fires = false;
    for (std::size_t j = 0; j < players; ++j) {
      if (j != self && player_online(h.back(), j) &&
          avg[j] < beta * avg[self]) {
        fires = true;
      }
    }
    const int w = gtft.decide(h, self);
    if (fires) {
      EXPECT_EQ(w, min_cw(h.back()));
    } else {
      EXPECT_EQ(w, h.back().cw[self]);
    }
  }
}

// A history in which everyone plays `profile[s]` at stage s — the "clean"
// case: no noise, no offline players, fully synchronized.
History homogeneous_history(const std::vector<int>& profile,
                            std::size_t players) {
  History h;
  for (int w : profile) {
    StageRecord r;
    r.cw.assign(players, w);
    r.utility.assign(players, 0.0);
    h.push_back(std::move(r));
  }
  return h;
}

TEST(StrategyPropertyTest, ForgivenessDriftIsMonotoneToCooperative) {
  // Clean history ⇒ both forgiving rules only ever move their window UP,
  // and reach the cooperative window in finitely many stages.
  for (int start : {1, 3, 7, kWMax / 2, kWMax}) {
    std::vector<std::unique_ptr<Strategy>> rules;
    rules.push_back(std::make_unique<ContriteTitForTat>(kWMax, 3));
    rules.push_back(std::make_unique<ForgivingGtft>(kWMax, 0.9, 3, 2, 2));
    for (auto& s : rules) {
      std::vector<int> profile{start};
      for (int stage = 0; stage < 40; ++stage) {
        const History h = homogeneous_history(profile, 4);
        const int next = s->decide(h, 0);
        ASSERT_GE(next, profile.back())
            << s->name() << " moved down on a clean history at stage "
            << stage;
        ASSERT_LE(next, kWMax) << s->name();
        profile.push_back(next);
      }
      EXPECT_EQ(profile.back(), kWMax)
          << s->name() << " failed to reach the cooperative window from "
          << start;
    }
  }
}

TEST(StrategyPropertyTest, ForgiveStepIsMonotoneWithFixedPoint) {
  for (int target : {1, 2, 19, kWMax}) {
    int prev = -1;
    for (int own = 1; own <= target; ++own) {
      const int next = forgive_step(own, target);
      EXPECT_GE(next, own) << "must not move down";
      EXPECT_LE(next, target) << "must not overshoot";
      EXPECT_GE(next, prev) << "monotone in own";
      prev = next;
    }
    EXPECT_EQ(forgive_step(target, target), target) << "fixed point";
    // Recovery is logarithmic: from W = 1, halving reaches any target
    // within 2·log2(target) + 2 steps.
    int w = 1;
    int steps = 0;
    while (w < target && steps < 64) {
      w = forgive_step(w, target);
      ++steps;
    }
    EXPECT_EQ(w, target);
    EXPECT_LE(steps, 16) << "halving-gap recovery must be logarithmic";
  }
}

TEST(StrategyPropertyTest, ForgivingGtftTriggerSemantics) {
  // triggered_at fires exactly when an opponent's average dips below
  // beta x own reference — pinned on a hand-built two-player history.
  ForgivingGtft s(20, 0.9, 2, 2, 2);
  History h = homogeneous_history({20, 20, 20}, 2);
  EXPECT_FALSE(s.triggered_at(h, 0, 2));
  // Opponent drops hard: avg over last 2 = (20 + 4)/2 = 12 < 0.9·20.
  h.back().cw[1] = 4;
  EXPECT_TRUE(s.triggered_at(h, 0, 2));
  // The same dip seen from the other side: player 1 observes opponent 0
  // dipping and triggers, but player 0's *own* dip never fires its own
  // trigger.
  History own_dip = homogeneous_history({20, 20, 20}, 2);
  own_dip.back().cw[0] = 4;
  EXPECT_TRUE(s.triggered_at(own_dip, 1, 2));
  EXPECT_FALSE(s.triggered_at(own_dip, 0, 2))
      << "own dip must not read as opponent aggression";
  // One triggered stage never punishes (trigger_stages = 2): the window
  // holds instead.
  EXPECT_EQ(s.decide(h, 0), h.back().cw[0]);
}

// ---- Bounded history walks ----
//
// Reference oracles: the full-history clean-streak walks that
// ContriteTitForTat::decide and ForgivingGtft::decide ran before they
// learned to stop at the streak they need and to skip the walk at the
// cooperative window. The library must agree with them on every prefix.

/// Test-local copy of the standing reference (strategies.cpp): the
/// smallest window `self` played over the last four stages up to `s`.
int reference_standing_ref(const History& h, std::size_t self,
                           std::size_t s) {
  int ref = h[s].cw.at(self);
  const std::size_t first = s + 1 >= 4 ? s + 1 - 4 : 0;
  for (std::size_t t = first; t < s; ++t) {
    ref = std::min(ref, h[t].cw.at(self));
  }
  return ref;
}

int full_walk_decide(const ContriteTitForTat& rule, const History& history,
                     std::size_t self) {
  if (history.empty()) return rule.cooperative_cw();
  const int own = history.back().cw.at(self);
  const std::size_t last = history.size() - 1;
  const int m = opponent_min_cw(history.back(), self);
  if (m < reference_standing_ref(history, self, last)) return m;
  int streak = 0;
  for (std::size_t s = history.size(); s-- > 0;) {
    if (opponent_min_cw(history[s], self) >=
        reference_standing_ref(history, self, s)) {
      ++streak;
    } else {
      break;
    }
  }
  if (streak >= rule.clean_stages() && own < rule.cooperative_cw()) {
    return forgive_step(own, rule.cooperative_cw());
  }
  return own;
}

int full_walk_decide(const ForgivingGtft& rule, const History& history,
                     std::size_t self) {
  if (history.empty()) return rule.initial_cw();
  const int own = history.back().cw.at(self);
  const auto trigger = static_cast<std::size_t>(rule.trigger_stages());
  if (history.size() >= trigger) {
    bool sustained = true;
    for (std::size_t s = 0; s < trigger; ++s) {
      if (!rule.triggered_at(history, self, history.size() - 1 - s)) {
        sustained = false;
        break;
      }
    }
    if (sustained) return min_cw(history.back());
  }
  if (rule.triggered_at(history, self, history.size() - 1)) return own;
  int streak = 0;
  for (std::size_t s = history.size(); s-- > 0;) {
    if (rule.triggered_at(history, self, s)) break;
    ++streak;
  }
  if (streak >= rule.clean_stages() && own < rule.initial_cw()) {
    return forgive_step(own, rule.initial_cw());
  }
  return own;
}

/// Compares decide() with the full-walk oracle for every player on every
/// prefix of `h` (the empty one included), over clean-streak lengths
/// 1..8 and trigger/average depths 1..5.
void expect_bounded_walks_match(const History& h, const std::string& label) {
  std::vector<ContriteTitForTat> contrite;
  for (const int k : {1, 3, 8}) contrite.emplace_back(kWMax, k);
  std::vector<ForgivingGtft> forgiving;
  forgiving.emplace_back(kWMax, 0.9, 3, 2, 2);
  forgiving.emplace_back(kWMax, 0.8, 1, 1, 1);
  forgiving.emplace_back(kWMax, 0.9, 5, 3, 6);
  forgiving.emplace_back(kWMax, 0.95, 2, 1, 8);
  const std::size_t players = h.empty() ? 1 : h.front().cw.size();
  History prefix;
  for (std::size_t len = 0; len <= h.size(); ++len) {
    if (len > 0) prefix.push_back(h[len - 1]);
    for (std::size_t self = 0; self < players; ++self) {
      for (ContriteTitForTat& rule : contrite) {
        ASSERT_EQ(rule.decide(prefix, self),
                  full_walk_decide(rule, prefix, self))
            << label << ": " << rule.name() << " self " << self
            << " prefix " << len;
      }
      for (ForgivingGtft& rule : forgiving) {
        ASSERT_EQ(rule.decide(prefix, self),
                  full_walk_decide(rule, prefix, self))
            << label << ": " << rule.name() << " self " << self
            << " prefix " << len;
      }
    }
  }
}

/// Closed-loop play of `rule` by every player, observed through noise:
/// each player's recorded window reads false-low (uniform in [1, w]) with
/// probability `noise`, and one random player is marked crashed with
/// probability 0.1. Produces punishment episodes, forgiveness drifts and
/// long runs at the cooperative window.
History noisy_self_play(Strategy& rule, std::size_t players,
                        std::size_t stages, double noise, util::Rng& rng) {
  History h;
  for (std::size_t s = 0; s < stages; ++s) {
    StageRecord r;
    for (std::size_t j = 0; j < players; ++j) {
      int w = h.empty() ? rule.initial_cw() : rule.decide(h, j);
      if (rng.uniform01() < noise) {
        w = static_cast<int>(rng.uniform_int(1, w));
      }
      r.cw.push_back(w);
    }
    r.utility.assign(players, 0.0);
    if (rng.uniform01() < 0.1) {
      r.online.assign(players, 1);
      r.online[rng.uniform_below(players)] = 0;
    }
    h.push_back(std::move(r));
  }
  return h;
}

TEST(BoundedWalkTest, MatchesFullWalkOnRandomHistories) {
  util::Rng rng(0x5eed0007ULL);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t players = 2 + rng.uniform_below(4);
    const History h = random_history(rng, players, 5 + rng.uniform_below(40));
    expect_bounded_walks_match(h, "random trial " + std::to_string(trial));
  }
}

TEST(BoundedWalkTest, MatchesFullWalkOnNoisySelfPlay) {
  util::Rng rng(0x5eed0008ULL);
  ContriteTitForTat contrite(kWMax, 3);
  ForgivingGtft forgiving(kWMax, 0.9, 3, 2, 2);
  for (int trial = 0; trial < 12; ++trial) {
    const double noise = trial % 3 == 0 ? 0.02 : trial % 3 == 1 ? 0.1 : 0.3;
    const std::size_t players = 3 + rng.uniform_below(3);
    Strategy& rule = trial % 2 == 0 ? static_cast<Strategy&>(contrite)
                                    : static_cast<Strategy&>(forgiving);
    const History h = noisy_self_play(rule, players, 80, noise, rng);
    expect_bounded_walks_match(h, rule.name() + " self-play trial " +
                                      std::to_string(trial));
  }
}

TEST(BoundedWalkTest, MatchesFullWalkOnLongCleanRuns) {
  // A forgiveness drift in progress: a long clean run held below the
  // cooperative window, after a deep punishment and an old dip.
  History below = homogeneous_history(std::vector<int>(60, 8), 4);
  below[3].cw[2] = 1;
  below[20].cw[1] = 2;
  expect_bounded_walks_match(below, "clean run below the cooperative window");
  // The drift itself: W = 1 for five stages, then halving-gap steps up
  // to the cooperative window and a long stay there.
  std::vector<int> drift(5, 1);
  while (drift.back() < kWMax) {
    drift.push_back(forgive_step(drift.back(), kWMax));
  }
  drift.resize(drift.size() + 40, kWMax);
  expect_bounded_walks_match(homogeneous_history(drift, 3),
                             "drift to the cooperative window");
  // At the cooperative window, with an old dip and a recent one.
  History at = homogeneous_history(std::vector<int>(60, kWMax), 4);
  at[10].cw[3] = 1;
  at[55].cw[0] = 4;
  expect_bounded_walks_match(at, "clean run at the cooperative window");
}

// ---- ObservationFilter properties ----

TEST(ObservationFilterPropertyTest, SmoothStaysWithinObservedRange) {
  util::Rng rng(0x5eed0005ULL);
  for (const FilterKind kind : {FilterKind::kMedian, FilterKind::kTrimmedMean}) {
    ObservationFilterConfig cfg;
    cfg.kind = kind;
    cfg.window = 5;
    const ObservationFilter filter(cfg);
    for (int trial = 0; trial < 100; ++trial) {
      std::vector<int> series;
      const std::size_t len = 1 + rng.uniform_below(12);
      for (std::size_t i = 0; i < len; ++i) {
        series.push_back(static_cast<int>(rng.uniform_int(1, kWMax)));
      }
      const std::size_t tail = std::min<std::size_t>(5, series.size());
      const auto first = series.end() - static_cast<std::ptrdiff_t>(tail);
      const int lo = *std::min_element(first, series.end());
      const int hi = *std::max_element(first, series.end());
      const int out = filter.smooth(series);
      EXPECT_GE(out, lo) << to_string(kind);
      EXPECT_LE(out, hi) << to_string(kind);
    }
  }
}

TEST(ObservationFilterPropertyTest, ConstantSeriesIsIdentity) {
  for (const FilterKind kind : {FilterKind::kMedian, FilterKind::kTrimmedMean}) {
    ObservationFilterConfig cfg;
    cfg.kind = kind;
    cfg.window = 5;
    const ObservationFilter filter(cfg);
    for (int w : {1, 19, kWMax}) {
      EXPECT_EQ(filter.smooth(std::vector<int>(7, w)), w) << to_string(kind);
    }
  }
}

TEST(ObservationFilterPropertyTest, IsolatedOutlierIsRejected) {
  // One false-low read inside a window of honest 19s must not survive
  // either estimator — the exact failure mode that ratchets TFT.
  for (const FilterKind kind : {FilterKind::kMedian, FilterKind::kTrimmedMean}) {
    ObservationFilterConfig cfg;
    cfg.kind = kind;
    cfg.window = 5;
    const ObservationFilter filter(cfg);
    EXPECT_EQ(filter.smooth({19, 19, 1, 19, 19}), 19) << to_string(kind);
  }
}

TEST(ObservationFilterPropertyTest, OnlyTheLastWindowRecordsMatter) {
  // The engine hands filter_latest its whole observed history each stage;
  // the filtered view must be the one its last `window` records give.
  util::Rng rng(0x5eed0006ULL);
  for (const FilterKind kind : {FilterKind::kMedian, FilterKind::kTrimmedMean}) {
    for (const int window : {1, 3, 5}) {
      ObservationFilterConfig cfg;
      cfg.kind = kind;
      cfg.window = window;
      const ObservationFilter filter(cfg);
      const std::size_t players = 4;
      const History raw = random_history(rng, players, 15);
      History prefix;
      for (const StageRecord& r : raw) {
        prefix.push_back(r);
        const std::size_t keep =
            std::min(prefix.size(), static_cast<std::size_t>(window));
        const History suffix(prefix.end() - static_cast<std::ptrdiff_t>(keep),
                             prefix.end());
        for (std::size_t self = 0; self < players; ++self) {
          const StageRecord full = filter.filter_latest(prefix, self);
          const StageRecord tail = filter.filter_latest(suffix, self);
          EXPECT_EQ(full.cw, tail.cw) << cfg.name() << " stage "
                                      << prefix.size() - 1;
          EXPECT_EQ(full.online, tail.online);
          // Self's own window is always observed exactly.
          EXPECT_EQ(full.cw[self], r.cw[self]);
        }
      }
    }
  }
}

TEST(ObservationFilterPropertyTest, ConfigValidation) {
  ObservationFilterConfig cfg;
  cfg.kind = FilterKind::kMedian;
  cfg.window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.window = 5;
  EXPECT_NO_THROW(cfg.validate());
  cfg.kind = FilterKind::kTrimmedMean;
  cfg.trim_fraction = 0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.trim_fraction = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.trim_fraction = 0.25;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.name(), "trim(5,0.25)");
  cfg.kind = FilterKind::kNone;
  EXPECT_EQ(cfg.name(), "none");
  EXPECT_FALSE(cfg.enabled());
}

TEST(ObservationFilterPropertyTest, ConfigValidationRejectsNaNTrim) {
  // smooth() would cast floor(NaN · size) to size_t.
  ObservationFilterConfig cfg;
  cfg.kind = FilterKind::kTrimmedMean;
  cfg.trim_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(ObservationFilter{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace smac::game
