#include "analytical/solver_service.hpp"

#include <algorithm>
#include <array>
#include <atomic>
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

/// Requests per bookkeeping task (sort, grouping, lookup) of a batch that
/// spans at least one per pool lane; any other batch is one chunk. A
/// scheduling unit only.
constexpr std::size_t kRequestChunk = 8192;

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
/// >= 1; `exact` when the digits hold the whole (window, multiplicity);
/// `first` when the handle starts its key's group in the sorted order.
struct SortHandle {
  static constexpr int kWords = 2;
  std::array<std::uint64_t, kWords> digits{};
  std::uint32_t request = 0;
  bool packed = false;
  bool exact = false;
  bool first = false;
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

/// Sort handles of `requests` in canonical key order, ties in request
/// order: a total order, so sorting each `chunk` and merging the runs
/// pairwise (on the pool) gives std::sort's order. Digits are as wide as
/// the largest packable value needs (windows < 2^11 fit 11 digits).
std::vector<SortHandle> canonical_order(std::span<const ClassProfile> requests,
                                        parallel::ThreadPool* pool,
                                        std::size_t chunk) {
  const auto packable = [](const ClassProfile& c) {
    const auto positive = [](int v) { return v >= 1; };
    return c.window.size() == c.multiplicity.size() &&
           std::ranges::all_of(c.window, positive) &&
           std::ranges::all_of(c.multiplicity, positive);
  };
  const std::size_t n = requests.size();
  std::atomic<unsigned> widest{1};
  parallel::for_each_chunk(pool, n, chunk, [&](std::size_t b, std::size_t e) {
    unsigned local = 1;
    for (const ClassProfile& c : requests.subspan(b, e - b)) {
      if (!packable(c)) continue;
      for (const int v : c.window) local = std::max(local, unsigned(v));
      for (const int v : c.multiplicity) local = std::max(local, unsigned(v));
    }
    for (unsigned seen = widest; local > seen &&
                                 !widest.compare_exchange_weak(seen, local);) {
    }
  });
  const int bits = std::bit_width(widest.load());
  const int per_word = 64 / bits;
  const auto before = [&](const SortHandle& a, const SortHandle& b) {
    const auto c = compare_handles(a, b, requests);
    return c != 0 ? c < 0 : a.request < b.request;
  };
  std::vector<SortHandle> order(n);
  parallel::for_each_chunk(pool, n, chunk, [&](std::size_t b, std::size_t e) {
    for (std::size_t r = b; r < e; ++r) {
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
    std::sort(order.begin() + b, order.begin() + e, before);
  });
  std::vector<SortHandle> merged(n > chunk ? n : 0);
  for (std::size_t run = chunk; run < n; run *= 2) {
    pool->for_each_index((n + 2 * run - 1) / (2 * run), [&](std::size_t i) {
      const auto at = [&](std::size_t pos) {
        return order.begin() + std::min(n, pos);
      };
      const std::size_t b = 2 * run * i;
      std::merge(at(b), at(b + run), at(b + run), at(b + 2 * run),
                 merged.begin() + b, before);
    });
    order.swap(merged);
  }
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
  const std::size_t n = requests.size();
  out.key_of.resize(n);
  if (n == 0) return out;
  // The bookkeeping runs on the pool only when every lane gets a chunk: a
  // two-chunk batch (a 10^4-node city stage) measured faster as one.
  parallel::ThreadPool* const pool =
      options_.pool != nullptr &&
              n > (options_.pool->size() - 1) * kRequestChunk
          ? options_.pool
          : nullptr;

  // Group requests by canonical key in ascending key order, so tally and
  // adoption order are a function of the request set alone — never of
  // request order, the pool or the chunking.
  const std::size_t chunk = pool != nullptr ? kRequestChunk : n;
  std::vector<SortHandle> order = canonical_order(requests, pool, chunk);

  // Chunk c owns the groups that start in it: it counts their starts, a
  // prefix (up to the sentinel) numbers them, and it writes them and key_of.
  struct ChunkTally {
    std::size_t first_group = 0;
    std::uint64_t hits = 0;
    std::uint64_t invalid = 0;
    std::vector<ClassGroup> misses;
  };
  std::vector<ChunkTally> tally((n + chunk - 1) / chunk + 1);
  parallel::for_each_chunk(pool, n, chunk, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      order[i].first =
          i == 0 || compare_handles(order[i - 1], order[i], requests) != 0;
      tally[b / chunk].first_group += order[i].first;
    }
  });
  std::size_t group_count = 0;
  for (ChunkTally& t : tally) {
    group_count += std::exchange(t.first_group, group_count);
  }
  std::vector<ClassGroup> groups(group_count);
  parallel::for_each_chunk(pool, n, chunk, [&](std::size_t b, std::size_t e) {
    const std::size_t own = tally[b / chunk].first_group;
    std::size_t g = own;  // one past the last group started so far
    for (std::size_t i = b; i < e; ++i) {
      if (order[i].first) {
        groups[g++] = {&requests[order[i].request], max_stage,
                       packet_error_rate, 0};
      }
      out.key_of[order[i].request] = static_cast<std::uint32_t>(g - 1);
      if (g > own) ++groups[g - 1].requests;
    }
    // The chunk's last group may run on into later chunks.
    for (std::size_t i = e; g > own && i < n && !order[i].first; ++i) {
      ++groups[g - 1].requests;
    }
  });
  out.results.resize(group_count);

  // fn(t, g) for every group g of every chunk t, each chunk one task.
  const auto each_group = [&](auto&& fn) {
    parallel::for_each_chunk(pool, n, chunk, [&](std::size_t b, std::size_t) {
      ChunkTally& t = tally[b / chunk];
      const std::size_t end = tally[b / chunk + 1].first_group;
      for (std::size_t g = t.first_group; g < end; ++g) fn(t, g);
    });
  };
  // In the cache's lookup each chunk answers its groups — an invalid key
  // with a miss per request (none if empty), a cached key with its
  // requests as hits — and lists the rest, which missed.
  static const TrySolveResult kInvalid = detail::invalid_solve();
  const std::size_t seen_size = cache_.lookup_classes([&](auto find) {
    each_group([&](ChunkTally& t, std::size_t g) {
      const ClassGroup& group = groups[g];
      if (!valid_class_key(*group.classes, max_stage, packet_error_rate)) {
        out.results[g] = kInvalid;
        if (!group.classes->window.empty()) t.invalid += group.requests;
      } else if (const TrySolveResult* hit = find(group)) {
        out.results[g] = *hit;
        t.hits += group.requests;
      } else {
        t.misses.push_back(group);
      }
    });
    std::pair<std::uint64_t, std::uint64_t> counted{0, 0};
    for (const ChunkTally& t : tally) {
      counted.first += t.hits;
      counted.second += t.invalid;
    }
    return counted;
  });
  std::vector<ClassGroup> misses = std::move(tally.front().misses);
  for (const ChunkTally& t : std::span(tally).subspan(1)) {
    misses.insert(misses.end(), t.misses.begin(), t.misses.end());
  }
  std::vector<detail::ClassSolveRef> instances(misses.size());
  for (std::size_t m = 0; m < misses.size(); ++m) {
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

  if (!misses.empty()) cache_.adopt_classes(misses, solved, seen_size, pool);
  for (std::size_t m = 0; m < misses.size(); ++m) {
    // A group's classes are its first request's.
    out.results[out.key_of[misses[m].classes - requests.data()]] =
        std::move(solved[m]);
  }
  return out;
}

}  // namespace smac::analytical
