#include "analytical/solver_service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <span>
#include <utility>

#include "analytical/solver_detail.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::analytical {

namespace {

/// Instances per pool task when a pool is set. Purely a scheduling unit —
/// results do not depend on it.
constexpr std::size_t kChunkSize = 64;

/// A canonical class key (non-empty, windows strictly ascending, every
/// multiplicity >= 1) whose solve inputs pass the solver's one check.
bool valid_class_key(const ClassProfile& classes, int max_stage, double per) {
  if (classes.window.empty() ||
      classes.window.size() != classes.multiplicity.size()) {
    return false;
  }
  for (std::size_t c = 0; c < classes.window.size(); ++c) {
    if (classes.multiplicity[c] < 1) return false;
    if (c > 0 && classes.window[c] <= classes.window[c - 1]) return false;
  }
  return detail::valid_solve_inputs(classes.window.front(), max_stage, per);
}

/// Canonical key order: window, then multiplicity, both lexicographic
/// (as std::vector's operator<). A batch shares one (max_stage, PER), so
/// these decide the whole key.
std::strong_ordering compare_keys(const ClassProfile& a,
                                  const ClassProfile& b) {
  if (const auto c = std::lexicographical_compare_three_way(
          a.window.begin(), a.window.end(), b.window.begin(),
          b.window.end());
      c != 0) {
    return c;
  }
  return std::lexicographical_compare_three_way(
      a.multiplicity.begin(), a.multiplicity.end(), b.multiplicity.begin(),
      b.multiplicity.end());
}

/// One request in the canonical sort. `digits` packs the leading digits
/// of its (window, multiplicity) key — the windows, a 0 terminator, then
/// the multiplicities — most significant first, so comparing digits
/// orders keys as compare_keys does, and with the key's tail copied in,
/// most comparisons never leave the handle. Packing needs every value
/// >= 1; `exact` when the digits hold the whole (window, multiplicity).
struct SortHandle {
  static constexpr int kWords = 2;
  std::array<std::uint64_t, kWords> digits{};
  std::uint32_t request = 0;
  bool packed = false;
  bool exact = false;
};

/// compare_keys on two handles, from the handles where they decide.
std::strong_ordering compare_handles(const SortHandle& a, const SortHandle& b,
                                     std::span<const ClassProfile> requests) {
  if (a.packed && b.packed) {
    if (const auto c = a.digits <=> b.digits; c != 0) return c;
    if (a.exact && b.exact) return std::strong_ordering::equal;
  }
  return compare_keys(requests[a.request], requests[b.request]);
}

/// Sort handles of `requests` in canonical key order (ties in request
/// order). Digits are as wide as the largest packable value needs, so
/// typical keys (windows < 2^11) fit 11 digits in the two words.
std::vector<SortHandle> canonical_order(
    std::span<const ClassProfile> requests) {
  const auto packable = [](const ClassProfile& c) {
    const auto positive = [](int v) { return v >= 1; };
    return c.window.size() == c.multiplicity.size() &&
           std::ranges::all_of(c.window, positive) &&
           std::ranges::all_of(c.multiplicity, positive);
  };
  unsigned widest = 1;
  for (const ClassProfile& c : requests) {
    if (!packable(c)) continue;
    for (const int v : c.window) {
      widest = std::max(widest, static_cast<unsigned>(v));
    }
    for (const int v : c.multiplicity) {
      widest = std::max(widest, static_cast<unsigned>(v));
    }
  }
  const int bits = std::bit_width(widest);
  const int per_word = 64 / bits;
  std::vector<SortHandle> order(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    SortHandle& h = order[r];
    h.request = static_cast<std::uint32_t>(r);
    const ClassProfile& c = requests[r];
    if (!packable(c)) continue;
    int pos = 0;
    const auto put = [&](int digit) {
      if (pos < SortHandle::kWords * per_word) {
        h.digits[static_cast<std::size_t>(pos / per_word)] |=
            static_cast<std::uint64_t>(digit)
            << (64 - bits * (pos % per_word + 1));
      }
      ++pos;
    };
    for (const int v : c.window) put(v);
    put(0);
    for (const int v : c.multiplicity) put(v);
    h.packed = true;
    h.exact = pos <= SortHandle::kWords * per_word;
  }
  std::sort(order.begin(), order.end(),
            [&](const SortHandle& a, const SortHandle& b) {
              const auto c = compare_handles(a, b, requests);
              return c != 0 ? c < 0 : a.request < b.request;
            });
  return order;
}

}  // namespace

SolverService::SolverService(Options options)
    : options_(std::move(options)),
      cache_(options_.solver, options_.max_cache_entries) {}

SolverService::ClassBatch SolverService::solve_classes(
    std::span<const ClassProfile> requests, int max_stage,
    double packet_error_rate) const {
  ClassBatch out;
  out.key_of.resize(requests.size());
  if (requests.empty()) return out;

  // Group requests by canonical key in ascending key order, so tally and
  // adoption order are a function of the request set alone — never of
  // request order.
  const std::vector<SortHandle> order = canonical_order(requests);
  std::vector<ClassGroup> groups;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || compare_handles(order[i - 1], order[i], requests) != 0) {
      groups.push_back(
          {&requests[order[i].request], max_stage, packet_error_rate, 0});
    }
    ++groups.back().requests;
    out.key_of[order[i].request] =
        static_cast<std::uint32_t>(groups.size() - 1);
  }
  out.results.resize(groups.size());

  // Invalid keys are answered here: one miss per request, no entry (an
  // empty request names no key and counts nothing). The valid ones go to
  // the cache.
  std::vector<ClassGroup> valid;
  std::vector<std::size_t> valid_slot;
  std::uint64_t invalid = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const ClassGroup& group = groups[g];
    if (valid_class_key(*group.classes, max_stage, packet_error_rate)) {
      valid.push_back(group);
      valid_slot.push_back(g);
      continue;
    }
    out.results[g] = detail::invalid_solve();
    if (!group.classes->window.empty()) invalid += group.requests;
  }
  if (invalid != 0) cache_.tally(0, invalid);

  std::vector<TrySolveResult> found(valid.size());
  const std::vector<std::size_t> missed = cache_.lookup_classes(valid, found);
  for (std::size_t v = 0; v < valid.size(); ++v) {
    out.results[valid_slot[v]] = std::move(found[v]);
  }

  std::vector<ClassGroup> misses(missed.size());
  std::vector<detail::ClassSolveRef> instances(missed.size());
  for (std::size_t m = 0; m < missed.size(); ++m) {
    misses[m] = valid[missed[m]];
    instances[m] = {misses[m].classes, max_stage, packet_error_rate,
                    &cache_.options()};
  }

  // Solve the distinct misses in lockstep, chunked across the pool when
  // one is configured. Instances are independent, so the chunking (and
  // the pool itself) cannot change a single bit of any result.
  std::vector<TrySolveResult> solved(instances.size());
  parallel::for_each_chunk(
      options_.pool, instances.size(), kChunkSize,
      [&](std::size_t begin, std::size_t end) {
        std::vector<TrySolveResult> part = detail::solve_classes_batch(
            {instances.data() + begin, end - begin});
        std::move(part.begin(), part.end(), solved.begin() + begin);
      });

  if (!misses.empty()) cache_.adopt_classes(misses, solved);  // key order
  for (std::size_t m = 0; m < missed.size(); ++m) {
    out.results[valid_slot[missed[m]]] = std::move(solved[m]);
  }
  return out;
}

}  // namespace smac::analytical
