// Player strategies for the repeated MAC game (paper §IV).
//
// A strategy observes the public history — the paper assumes contention
// windows are observable in promiscuous mode (Kyasanur & Vaidya's
// detection technique) — and picks the next stage's window. TFT and GTFT
// are the paper's focus; the remaining strategies implement the deviants
// analyzed in §V.D/§V.E and baselines used in benches.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace smac::game {

/// One completed stage: the profile played and realized stage payoffs.
struct StageRecord {
  std::vector<int> cw;           ///< contention window of every player
  std::vector<double> utility;   ///< realized stage utility of every player
  /// Fault-aware engines mark crashed players: online[i] == 0 means player
  /// i was down this stage (its cw carries its last configuration but it
  /// did not transmit and must not drive TFT matching). Empty — the
  /// default, and the only state fault-free engines produce — means every
  /// player was online.
  std::vector<std::uint8_t> online;
};

/// Whether player i was online in `record` (empty mask = all online).
bool player_online(const StageRecord& record, std::size_t i);

/// Public history of the repeated game, oldest stage first.
using History = std::vector<StageRecord>;

/// Convergence facts of a finished horizon, shared by every stage loop's
/// result (the engine, the slot-simulated runtime, the multihop loops).
struct Convergence {
  /// Common window if the final stage is homogeneous, else nullopt.
  std::optional<int> converged_cw;
  /// First stage index from which the profile never changes again;
  /// equals the horizon when the profile kept moving.
  int stable_from = 0;
};

/// Convergence of a non-empty stage list whose elements hold the played
/// profile as `.cw` (a History, a multihop stage list).
template <typename Stages>
Convergence convergence_of(const Stages& stages) {
  const std::vector<int>& last = stages.back().cw;
  Convergence facts;
  if (std::adjacent_find(last.begin(), last.end(), std::not_equal_to<>()) ==
      last.end()) {
    facts.converged_cw = last.front();
  }
  facts.stable_from = static_cast<int>(stages.size());
  while (facts.stable_from > 0 &&
         stages[static_cast<std::size_t>(facts.stable_from - 1)].cw == last) {
    --facts.stable_from;
  }
  return facts;
}

/// Decision rule of one player.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Window played in stage 0 (TFT "starts cooperative").
  virtual int initial_cw() const = 0;

  /// Window for the next stage given the full public history; `self` is
  /// this player's index into each StageRecord. Every rule below reads a
  /// bounded suffix of the history (stated per class), so a decision at
  /// stage 1000 costs what one at stage 1 does.
  virtual int decide(const History& history, std::size_t self) = 0;

  /// Short display name ("tft", "gtft(0.9,3)", …).
  virtual std::string name() const = 0;

  /// Whether this player's node runs the enforcement protocol (see
  /// game/reaction.hpp): compliant firmware obeys punishment commands and
  /// has its in-episode observations sanitized. The deviants (§V.D/§V.E)
  /// and fixed-window baselines return false — enforcement is exactly the
  /// thing they ignore.
  virtual bool follows_enforcement() const { return true; }
};

/// Plays a fixed window forever. Baseline, and the §V.E malicious player
/// when configured with a very small window. decide() reads no record.
class ConstantStrategy final : public Strategy {
 public:
  explicit ConstantStrategy(int w);
  int initial_cw() const override { return w_; }
  int decide(const History&, std::size_t) override { return w_; }
  std::string name() const override;
  bool follows_enforcement() const override { return false; }

 private:
  int w_;
};

/// TIT-FOR-TAT: cooperate first, then match the most aggressive opponent:
/// W_i^k = min_j W_j^{k−1} (paper §IV). decide() reads the last record.
class TitForTat final : public Strategy {
 public:
  explicit TitForTat(int initial_w);
  int initial_cw() const override { return initial_w_; }
  int decide(const History& history, std::size_t self) override;
  std::string name() const override { return "tft"; }

 private:
  int initial_w_;
};

/// Generous TFT (paper §IV): averages windows over the last r0 stages and
/// only reacts when some player's average is below β times its own;
/// otherwise it keeps its current window. β < 1 close to 1; larger r0 or
/// smaller β = more tolerant. decide() reads the last r0 records.
class GenerousTitForTat final : public Strategy {
 public:
  GenerousTitForTat(int initial_w, double beta, int window_stages);
  int initial_cw() const override { return initial_w_; }
  int decide(const History& history, std::size_t self) override;
  std::string name() const override;

  double beta() const noexcept { return beta_; }
  int window_stages() const noexcept { return r0_; }

 private:
  int initial_w_;
  double beta_;
  int r0_;
};

/// §V.D short-sighted deviant: plays W_s (< W_c*) from the first stage and
/// never adapts — it discounts the future too heavily to care about the
/// TFT retaliation it provokes. decide() reads no record.
class ShortSightedStrategy final : public Strategy {
 public:
  explicit ShortSightedStrategy(int w_s);
  int initial_cw() const override { return w_s_; }
  int decide(const History&, std::size_t) override { return w_s_; }
  std::string name() const override;
  bool follows_enforcement() const override { return false; }

 private:
  int w_s_;
};

/// §V.E malicious player: cooperates at W_coop until `attack_stage`, then
/// drops to W_attack to drag the whole network down via TFT contagion.
/// decide() reads only the history's length.
class MaliciousStrategy final : public Strategy {
 public:
  MaliciousStrategy(int w_coop, int w_attack, int attack_stage);
  int initial_cw() const override;
  int decide(const History& history, std::size_t self) override;
  std::string name() const override;
  bool follows_enforcement() const override { return false; }

 private:
  int w_coop_;
  int w_attack_;
  int attack_stage_;
};

/// Contrite TFT (robustness extension of §IV, after Boyd's "contrite"
/// repair of TFT in noisy games): punishes like TFT — any online opponent
/// observed below its *standing reference* (the smallest window it
/// played over the last few stages) is matched — but once `clean_stages`
/// consecutive stages pass with nobody below that reference, it drifts
/// back up toward its cooperative window, halving the remaining gap each
/// stage. The trailing-minimum reference is the standing notion: a player
/// that just forgave upward must not punish laggards still at the old
/// common level — nor beliefs a few stages stale under observation loss —
/// or desynchronized forgiveness self-destructs. A false-low
/// observation therefore costs a bounded punishment episode instead of
/// TFT's permanent W = 1 ratchet. decide() is a pure function of
/// (history, self): no internal state. It reads the last k + 3 records
/// at most (k clean stages, each judged against a standing reference of
/// four stages), and only the last four when the player already sits at
/// its cooperative window.
class ContriteTitForTat final : public Strategy {
 public:
  ContriteTitForTat(int w_coop, int clean_stages);
  int initial_cw() const override { return w_coop_; }
  int decide(const History& history, std::size_t self) override;
  std::string name() const override;  // "contrite-tft(w=19,k=3)"

  int cooperative_cw() const noexcept { return w_coop_; }
  int clean_stages() const noexcept { return k_; }

 private:
  int w_coop_;
  int k_;
};

/// Forgiving GTFT: GTFT whose punishment trigger must hold on the
/// r0-stage *averaged* windows for `trigger_stages` consecutive stages
/// before it reacts (one noisy stage can never fire it), and which
/// relaxes upward toward its cooperative window after `clean_stages`
/// consecutive untriggered stages — the upward branch plain GTFT lacks.
/// The trigger compares opponents' averages against β times the smaller
/// of the own r0-average and the own standing reference (minimum window
/// played over the last few stages), so neither its own punishment nor
/// its own upward drift reads as opponents turning aggressive. decide()
/// is a pure function of (history, self). It reads the last
/// max(trigger, clean) + max(r0, 4) − 1 records at most (each stage's
/// trigger averages r0 records and takes a standing reference of four),
/// and only trigger + max(r0, 4) − 1 when the player already sits at its
/// cooperative window; it evaluates each stage's trigger at most once.
class ForgivingGtft final : public Strategy {
 public:
  ForgivingGtft(int initial_w, double beta, int window_stages,
                int trigger_stages, int clean_stages);
  int initial_cw() const override { return initial_w_; }
  int decide(const History& history, std::size_t self) override;
  /// "forgiving-gtft(beta=0.9,r0=3,trig=2,clean=2)"
  std::string name() const override;

  double beta() const noexcept { return beta_; }
  int window_stages() const noexcept { return r0_; }
  int trigger_stages() const noexcept { return trigger_; }
  int clean_stages() const noexcept { return clean_; }

  /// Whether the GTFT trigger condition (some online opponent's r0-stage
  /// average below beta × own average) holds at history stage `stage`.
  /// Exposed so tests can pin the trigger semantics independently.
  bool triggered_at(const History& history, std::size_t self,
                    std::size_t stage) const;

 private:
  int initial_w_;
  double beta_;
  int r0_;
  int trigger_;
  int clean_;
};

/// Myopic best response: each stage plays the window maximizing its own
/// *stage* utility against the opponents' last profile. Used as the
/// "everyone short-sighted" baseline that reproduces the network-collapse
/// results of Cagalj et al. (paper §VIII discussion). decide() reads the
/// last record.
class MyopicBestResponse final : public Strategy {
 public:
  /// The response is computed against an evaluation oracle supplied by the
  /// runtime (analytical stage game); `w_max` bounds the search.
  using Oracle = std::function<double(const std::vector<int>& profile,
                                      std::size_t self)>;
  MyopicBestResponse(int initial_w, int w_max, Oracle oracle);
  int initial_cw() const override { return initial_w_; }
  int decide(const History& history, std::size_t self) override;
  std::string name() const override { return "myopic-br"; }
  bool follows_enforcement() const override { return false; }

 private:
  int initial_w_;
  int w_max_;
  Oracle oracle_;
};

/// Convenience: the minimum window across one stage record's *online*
/// players (all players when the online mask is empty; falls back to the
/// full profile if every player is marked down).
int min_cw(const StageRecord& record);

/// Minimum window across the *online opponents* of player `self`; falls
/// back to self's own window when no opponent is online (no evidence of
/// aggression). The quantity the forgiving strategies react to.
int opponent_min_cw(const StageRecord& record, std::size_t self);

/// One upward forgiveness step: halves the remaining gap to `target`
/// (always by at least 1, never past target). Monotone non-decreasing in
/// `own` with fixed point `target`, so a clean streak drives any window
/// back to the cooperative one in O(log(target − own)) stages.
int forgive_step(int own, int target) noexcept;

}  // namespace smac::game
