#include "game/strategies.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/optimize.hpp"

namespace smac::game {

bool player_online(const StageRecord& record, std::size_t i) {
  if (record.online.empty()) return true;
  return i < record.online.size() && record.online[i] != 0;
}

int min_cw(const StageRecord& record) {
  if (record.cw.empty()) throw std::invalid_argument("min_cw: empty record");
  int best = 0;
  bool found = false;
  for (std::size_t j = 0; j < record.cw.size(); ++j) {
    if (!player_online(record, j)) continue;
    if (!found || record.cw[j] < best) {
      best = record.cw[j];
      found = true;
    }
  }
  if (found) return best;
  // Every player down this stage — fall back to the raw profile so TFT
  // still has a well-defined (if moot) response.
  return *std::min_element(record.cw.begin(), record.cw.end());
}

int opponent_min_cw(const StageRecord& record, std::size_t self) {
  if (record.cw.empty()) {
    throw std::invalid_argument("opponent_min_cw: empty record");
  }
  int best = 0;
  bool found = false;
  for (std::size_t j = 0; j < record.cw.size(); ++j) {
    if (j == self || !player_online(record, j)) continue;
    if (!found || record.cw[j] < best) {
      best = record.cw[j];
      found = true;
    }
  }
  return found ? best : record.cw.at(self);
}

int forgive_step(int own, int target) noexcept {
  if (own >= target) return target;
  return std::min(target, own + std::max(1, (target - own + 1) / 2));
}

// ---- ConstantStrategy ----

ConstantStrategy::ConstantStrategy(int w) : w_(w) {
  if (w < 1) throw std::invalid_argument("ConstantStrategy: w < 1");
}

std::string ConstantStrategy::name() const {
  std::ostringstream os;
  os << "constant(" << w_ << ")";
  return os.str();
}

// ---- TitForTat ----

TitForTat::TitForTat(int initial_w) : initial_w_(initial_w) {
  if (initial_w < 1) throw std::invalid_argument("TitForTat: initial_w < 1");
}

int TitForTat::decide(const History& history, std::size_t /*self*/) {
  if (history.empty()) return initial_w_;
  return min_cw(history.back());
}

// ---- GenerousTitForTat ----

GenerousTitForTat::GenerousTitForTat(int initial_w, double beta,
                                     int window_stages)
    : initial_w_(initial_w), beta_(beta), r0_(window_stages) {
  if (initial_w < 1) {
    throw std::invalid_argument("GenerousTitForTat: initial_w < 1");
  }
  if (!(beta > 0.0) || !(beta < 1.0)) {
    throw std::invalid_argument("GenerousTitForTat: beta outside (0,1)");
  }
  if (window_stages < 1) {
    throw std::invalid_argument("GenerousTitForTat: window_stages < 1");
  }
}

int GenerousTitForTat::decide(const History& history, std::size_t self) {
  if (history.empty()) return initial_w_;
  const int current = history.back().cw.at(self);

  // Average each player's window over the last r0 stages (fewer if the
  // game is younger than r0).
  const std::size_t n = history.back().cw.size();
  const std::size_t stages =
      std::min<std::size_t>(static_cast<std::size_t>(r0_), history.size());
  std::vector<double> avg(n, 0.0);
  for (std::size_t s = history.size() - stages; s < history.size(); ++s) {
    for (std::size_t j = 0; j < n; ++j) {
      avg[j] += static_cast<double>(history[s].cw.at(j));
    }
  }
  for (double& a : avg) a /= static_cast<double>(stages);

  const double mine = avg[self];
  bool someone_more_aggressive = false;
  for (std::size_t j = 0; j < n; ++j) {
    // A crashed player is not transmitting; its stale window must not
    // trigger retaliation.
    if (!player_online(history.back(), j)) continue;
    if (j != self && avg[j] < beta_ * mine) {
      someone_more_aggressive = true;
      break;
    }
  }
  if (someone_more_aggressive) return min_cw(history.back());
  return current;
}

std::string GenerousTitForTat::name() const {
  std::ostringstream os;
  os << "gtft(beta=" << beta_ << ",r0=" << r0_ << ")";
  return os.str();
}

// ---- ContriteTitForTat ----

ContriteTitForTat::ContriteTitForTat(int w_coop, int clean_stages)
    : w_coop_(w_coop), k_(clean_stages) {
  if (w_coop < 1) throw std::invalid_argument("ContriteTitForTat: w_coop < 1");
  if (clean_stages < 1) {
    throw std::invalid_argument("ContriteTitForTat: clean_stages < 1");
  }
}

namespace {

/// The "standing" reference of player `self` at history stage `s`: the
/// smallest window it played over the last kStandingDepth stages.
/// Opponents at or above this level are not deviating — they may simply
/// not have forgiven as far as we have, or an observer's belief of them
/// may be a few stages stale (observation loss keeps the previous
/// belief). Judging aggression against the *raised* window instead
/// (plain min-matching) makes desynchronized upward drift
/// self-punishing: the first player to forgive sees the laggards "below"
/// it and drops right back, and the population stands at W = 1 forever.
/// Depth 4 tolerates beliefs stale by up to 3 stages — deeper staleness
/// has probability loss_probability^4 per belief and is punished as if
/// real (a bounded episode, not a ratchet).
constexpr std::size_t kStandingDepth = 4;

int standing_ref(const History& history, std::size_t self, std::size_t s) {
  int ref = history[s].cw.at(self);
  const std::size_t first = s + 1 >= kStandingDepth ? s + 1 - kStandingDepth
                                                    : 0;
  for (std::size_t t = first; t < s; ++t) {
    ref = std::min(ref, history[t].cw.at(self));
  }
  return ref;
}

}  // namespace

int ContriteTitForTat::decide(const History& history, std::size_t self) {
  if (history.empty()) return w_coop_;
  const int own = history.back().cw.at(self);
  const std::size_t last = history.size() - 1;
  const int m = opponent_min_cw(history.back(), self);
  if (m < standing_ref(history, self, last)) return m;  // punish, TFT-style
  if (own >= w_coop_) return own;  // nothing left to forgive
  // Contrition: count the trailing stages in which nobody (online) was
  // observed below this player's standing reference; only whether the
  // streak reaches k matters, so the walk stops there.
  int streak = 0;
  for (std::size_t s = history.size(); streak < k_ && s-- > 0;) {
    if (opponent_min_cw(history[s], self) < standing_ref(history, self, s)) {
      break;
    }
    ++streak;
  }
  if (streak >= k_) return forgive_step(own, w_coop_);
  return own;
}

std::string ContriteTitForTat::name() const {
  std::ostringstream os;
  os << "contrite-tft(w=" << w_coop_ << ",k=" << k_ << ")";
  return os.str();
}

// ---- ForgivingGtft ----

ForgivingGtft::ForgivingGtft(int initial_w, double beta, int window_stages,
                             int trigger_stages, int clean_stages)
    : initial_w_(initial_w),
      beta_(beta),
      r0_(window_stages),
      trigger_(trigger_stages),
      clean_(clean_stages) {
  if (initial_w < 1) throw std::invalid_argument("ForgivingGtft: initial_w < 1");
  if (!(beta > 0.0) || !(beta < 1.0)) {
    throw std::invalid_argument("ForgivingGtft: beta outside (0,1)");
  }
  if (window_stages < 1) {
    throw std::invalid_argument("ForgivingGtft: window_stages < 1");
  }
  if (trigger_stages < 1) {
    throw std::invalid_argument("ForgivingGtft: trigger_stages < 1");
  }
  if (clean_stages < 1) {
    throw std::invalid_argument("ForgivingGtft: clean_stages < 1");
  }
}

bool ForgivingGtft::triggered_at(const History& history, std::size_t self,
                                 std::size_t stage) const {
  if (stage >= history.size()) {
    throw std::invalid_argument("ForgivingGtft: stage out of range");
  }
  const StageRecord& record = history[stage];
  const std::size_t n = record.cw.size();
  const std::size_t stages =
      std::min<std::size_t>(static_cast<std::size_t>(r0_), stage + 1);
  std::vector<double> avg(n, 0.0);
  for (std::size_t s = stage + 1 - stages; s <= stage; ++s) {
    for (std::size_t j = 0; j < n; ++j) {
      avg[j] += static_cast<double>(history[s].cw.at(j));
    }
  }
  for (double& a : avg) a /= static_cast<double>(stages);
  // The reference is the smallest of the r0-averaged own window and the
  // windows actually played in the last two stages (the "standing" floor,
  // see standing_ref above): a player that just punished or just drifted
  // upward must not read its own move as opponents turning aggressive.
  const double mine =
      std::min(avg[self],
               static_cast<double>(standing_ref(history, self, stage)));
  for (std::size_t j = 0; j < n; ++j) {
    if (j == self || !player_online(record, j)) continue;
    if (avg[j] < beta_ * mine) return true;
  }
  return false;
}

int ForgivingGtft::decide(const History& history, std::size_t self) {
  if (history.empty()) return initial_w_;
  const int own = history.back().cw.at(self);
  // The newest stage's trigger chooses between punishing and forgiving;
  // older stages are read only to extend that run, each at most once.
  const std::size_t last = history.size() - 1;
  if (triggered_at(history, self, last)) {
    // Punish only when the averaged trigger held for the last `trigger_`
    // stages in a row — one noisy stage can never fire it.
    const auto trigger = static_cast<std::size_t>(trigger_);
    if (history.size() < trigger) return own;
    for (std::size_t s = last; s-- > history.size() - trigger;) {
      if (!triggered_at(history, self, s)) return own;
    }
    return min_cw(history.back());
  }
  if (own >= initial_w_) return own;  // nothing left to forgive
  // Upward relaxation after a clean (untriggered) streak, the newest stage
  // its first; the walk stops once the streak reaches `clean_`.
  int streak = 1;
  for (std::size_t s = last; streak < clean_ && s-- > 0;) {
    if (triggered_at(history, self, s)) break;
    ++streak;
  }
  if (streak >= clean_) return forgive_step(own, initial_w_);
  return own;
}

std::string ForgivingGtft::name() const {
  std::ostringstream os;
  os << "forgiving-gtft(beta=" << beta_ << ",r0=" << r0_ << ",trig="
     << trigger_ << ",clean=" << clean_ << ")";
  return os.str();
}

// ---- ShortSightedStrategy ----

ShortSightedStrategy::ShortSightedStrategy(int w_s) : w_s_(w_s) {
  if (w_s < 1) throw std::invalid_argument("ShortSightedStrategy: w_s < 1");
}

std::string ShortSightedStrategy::name() const {
  std::ostringstream os;
  os << "short-sighted(" << w_s_ << ")";
  return os.str();
}

// ---- MaliciousStrategy ----

MaliciousStrategy::MaliciousStrategy(int w_coop, int w_attack,
                                     int attack_stage)
    : w_coop_(w_coop), w_attack_(w_attack), attack_stage_(attack_stage) {
  if (w_coop < 1 || w_attack < 1) {
    throw std::invalid_argument("MaliciousStrategy: windows must be >= 1");
  }
  if (attack_stage < 0) {
    throw std::invalid_argument("MaliciousStrategy: attack_stage < 0");
  }
}

int MaliciousStrategy::initial_cw() const {
  return attack_stage_ == 0 ? w_attack_ : w_coop_;
}

int MaliciousStrategy::decide(const History& history, std::size_t /*self*/) {
  const int next_stage = static_cast<int>(history.size());
  return next_stage >= attack_stage_ ? w_attack_ : w_coop_;
}

std::string MaliciousStrategy::name() const {
  std::ostringstream os;
  os << "malicious(" << w_attack_ << "@" << attack_stage_ << ")";
  return os.str();
}

// ---- MyopicBestResponse ----

MyopicBestResponse::MyopicBestResponse(int initial_w, int w_max, Oracle oracle)
    : initial_w_(initial_w), w_max_(w_max), oracle_(std::move(oracle)) {
  if (initial_w < 1 || w_max < initial_w) {
    throw std::invalid_argument("MyopicBestResponse: bad window range");
  }
  if (!oracle_) throw std::invalid_argument("MyopicBestResponse: null oracle");
}

int MyopicBestResponse::decide(const History& history, std::size_t self) {
  if (history.empty()) return initial_w_;
  std::vector<int> profile = history.back().cw;
  // The stage utility against fixed opponents is unimodal in the own
  // window (Lemma 1 monotonicities), so ternary search applies.
  const auto r = util::ternary_int_max(
      [&](std::int64_t w) {
        profile[self] = static_cast<int>(w);
        return oracle_(profile, self);
      },
      1, w_max_);
  return static_cast<int>(r.x);
}

}  // namespace smac::game
