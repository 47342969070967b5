#include "analytical/solver_service.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <future>
#include <span>
#include <stdexcept>
#include <utility>

#include "analytical/solver_detail.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::analytical {

namespace {

bool valid_class_key(const ClassProfile& classes, int max_stage, double per) {
  if (classes.window.empty() ||
      classes.window.size() != classes.multiplicity.size()) {
    return false;
  }
  for (std::size_t c = 0; c < classes.window.size(); ++c) {
    if (classes.window[c] < 1 || classes.multiplicity[c] < 1) return false;
    if (c > 0 && classes.window[c] <= classes.window[c - 1]) return false;
  }
  return max_stage >= 0 && per >= 0.0 && per < 1.0;
}

/// try_solve_network's answer to invalid inputs.
TrySolveResult invalid_result() {
  TrySolveResult out;
  out.diagnostics.status = SolveStatus::kFailed;
  out.diagnostics.method = "invalid";
  return out;
}

/// PER as an unsigned integer in IEEE 754 totalOrder: the canonical
/// order compares PERs through this, so even a NaN PER cannot break the
/// sort, and on valid PERs (>= 0) it agrees with <.
std::uint64_t per_order(double per) {
  const auto bits = std::bit_cast<std::uint64_t>(per);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// Canonical key order: window, then multiplicity (both lexicographic, as
/// std::vector's operator<), then max_stage, then PER.
std::strong_ordering compare_keys(const ClassGroup& a, const ClassGroup& b) {
  if (const auto c = std::lexicographical_compare_three_way(
          a.classes->window.begin(), a.classes->window.end(),
          b.classes->window.begin(), b.classes->window.end());
      c != 0) {
    return c;
  }
  if (const auto c = std::lexicographical_compare_three_way(
          a.classes->multiplicity.begin(), a.classes->multiplicity.end(),
          b.classes->multiplicity.begin(), b.classes->multiplicity.end());
      c != 0) {
    return c;
  }
  if (const auto c = a.max_stage <=> b.max_stage; c != 0) return c;
  return per_order(a.packet_error_rate) <=> per_order(b.packet_error_rate);
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
  std::uint64_t per = 0;  ///< per_order of the request's PER
  int max_stage = 0;
  std::uint32_t request = 0;
  bool packed = false;
  bool exact = false;
};

/// compare_keys on two handles, from the handles where they decide.
std::strong_ordering compare_handles(const SortHandle& a, const SortHandle& b,
                                     std::span<const ClassGroup> requests) {
  if (a.packed && b.packed) {
    if (const auto c = a.digits <=> b.digits; c != 0) return c;
    if (a.exact && b.exact) {
      if (const auto c = a.max_stage <=> b.max_stage; c != 0) return c;
      return a.per <=> b.per;
    }
  }
  return compare_keys(requests[a.request], requests[b.request]);
}

/// Sort handles of `requests` in canonical key order (ties in request
/// order). Digits are as wide as the largest packable value needs, so
/// typical keys (windows < 2^11) fit 11 digits in the two words.
std::vector<SortHandle> canonical_order(std::span<const ClassGroup> requests) {
  const auto packable = [](const ClassProfile& c) {
    const auto positive = [](int v) { return v >= 1; };
    return c.window.size() == c.multiplicity.size() &&
           std::ranges::all_of(c.window, positive) &&
           std::ranges::all_of(c.multiplicity, positive);
  };
  unsigned widest = 1;
  for (const ClassGroup& r : requests) {
    if (!packable(*r.classes)) continue;
    for (const int v : r.classes->window) {
      widest = std::max(widest, static_cast<unsigned>(v));
    }
    for (const int v : r.classes->multiplicity) {
      widest = std::max(widest, static_cast<unsigned>(v));
    }
  }
  const int bits = std::bit_width(widest);
  const int per_word = 64 / bits;
  std::vector<SortHandle> order(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    SortHandle& h = order[r];
    h.request = static_cast<std::uint32_t>(r);
    h.max_stage = requests[r].max_stage;
    h.per = per_order(requests[r].packet_error_rate);
    const ClassProfile& c = *requests[r].classes;
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

const TrySolveResult& SolverService::Ticket::result() const {
  if (request_ == nullptr) {
    throw std::logic_error("SolverService::Ticket: empty ticket");
  }
  // Pending in the queue: our drain fulfills it. In another thread's
  // in-flight drain: our drain blocks on the drain mutex until that one
  // finishes, at which point done is set.
  while (!request_->done.load(std::memory_order_acquire)) {
    service_->drain();
  }
  return request_->result;
}

SolverService::SolverService(Options options)
    : options_(std::move(options)),
      cache_(options_.solver, options_.max_cache_entries) {
  if (options_.chunk_size == 0) options_.chunk_size = 1;
}

SolverService::Ticket SolverService::submit(std::vector<int> w, int max_stage,
                                            double packet_error_rate) const {
  auto request = std::make_shared<Ticket::Request>();
  request->w = std::move(w);
  request->max_stage = max_stage;
  request->packet_error_rate = packet_error_rate;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    pending_.push_back(request);
  }
  return Ticket(this, std::move(request));
}

SolverService::ClassBatch SolverService::solve_classes(
    std::span<const ClassProfile> requests, int max_stage,
    double packet_error_rate) const {
  std::vector<ClassGroup> keyed(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    keyed[r] = {&requests[r], max_stage, packet_error_rate, 1};
  }
  return solve_keyed(keyed);
}

void SolverService::drain() const {
  std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  std::vector<std::shared_ptr<Ticket::Request>> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    batch.swap(pending_);
  }
  if (batch.empty()) return;

  std::vector<ClassProfile> classes(batch.size());
  std::vector<ClassGroup> keyed(batch.size());
  std::uint64_t empty = 0;
  for (std::size_t r = 0; r < batch.size(); ++r) {
    classes[r] = classify_profile(batch[r]->w);
    keyed[r] = {&classes[r], batch[r]->max_stage,
                batch[r]->packet_error_rate, 1};
    if (batch[r]->w.empty()) ++empty;
  }
  // An empty profile names no class key, but NetworkSolveCache::solve
  // still counts it as a miss.
  cache_.tally(0, empty);
  const ClassBatch solved = solve_keyed(keyed);
  for (std::size_t r = 0; r < batch.size(); ++r) {
    const TrySolveResult& collapsed = solved.results[solved.key_of[r]];
    Ticket::Request& request = *batch[r];
    if (collapsed.state.tau.empty()) {
      request.result = collapsed;  // invalid: nothing to expand
    } else {
      request.result.state = expand_classes(collapsed.state, classes[r]);
      request.result.diagnostics = collapsed.diagnostics;
    }
    request.done.store(true, std::memory_order_release);
  }
}

SolverService::ClassBatch SolverService::solve_keyed(
    std::span<const ClassGroup> requests) const {
  ClassBatch out;
  out.key_of.resize(requests.size());
  if (requests.empty()) return out;

  // Group requests by canonical key in ascending key order, so tally and
  // adoption order are a function of the request set alone — never of
  // submission order.
  const std::vector<SortHandle> order = canonical_order(requests);
  std::vector<ClassGroup> groups;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || compare_handles(order[i - 1], order[i], requests) != 0) {
      groups.push_back(requests[order[i].request]);
      groups.back().requests = 0;
    }
    ++groups.back().requests;
    out.key_of[order[i].request] =
        static_cast<std::uint32_t>(groups.size() - 1);
  }
  out.results.resize(groups.size());

  // Invalid keys are answered here, like NetworkSolveCache::solve: one
  // miss per request, no entry (an empty request names no key and counts
  // nothing). The valid ones go to the cache.
  std::vector<ClassGroup> valid;
  std::vector<std::size_t> valid_slot;
  std::uint64_t invalid = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const ClassGroup& group = groups[g];
    if (valid_class_key(*group.classes, group.max_stage,
                        group.packet_error_rate)) {
      valid.push_back(group);
      valid_slot.push_back(g);
      continue;
    }
    out.results[g] = invalid_result();
    if (!group.classes->window.empty()) invalid += group.requests;
  }
  cache_.tally(0, invalid);

  std::vector<TrySolveResult> found(valid.size());
  const std::vector<std::size_t> missed = cache_.lookup_classes(valid, found);
  for (std::size_t v = 0; v < valid.size(); ++v) {
    out.results[valid_slot[v]] = std::move(found[v]);
  }

  std::vector<ClassGroup> misses(missed.size());
  std::vector<detail::ClassSolveRef> instances(missed.size());
  // Warm-started misses carry their own options (reserved up front, so
  // the instances can point at them); the rest share the cache's.
  std::vector<SolverOptions> warm;
  std::vector<std::size_t> hinted;
  if (options_.warm_start_neighbors) warm.reserve(missed.size());
  for (std::size_t m = 0; m < missed.size(); ++m) {
    const ClassGroup& group = valid[missed[m]];
    misses[m] = group;
    instances[m] = {group.classes, group.max_stage, group.packet_error_rate,
                    &cache_.options()};
    if (options_.warm_start_neighbors) {
      if (auto hint = cache_.neighbor_hint(*group.classes, group.max_stage,
                                           group.packet_error_rate)) {
        warm.push_back(cache_.options());
        warm.back().initial_tau = std::move(*hint);
        instances[m].opts = &warm.back();
        hinted.push_back(m);
      }
    }
  }

  // Solve the distinct misses in lockstep, chunked across the pool when
  // one is configured. Instances are independent, so the chunking (and
  // the pool itself) cannot change a single bit of any result.
  std::vector<TrySolveResult> solved(instances.size());
  if (options_.pool != nullptr && instances.size() > 1) {
    std::vector<std::future<void>> chunks;
    for (std::size_t begin = 0; begin < instances.size();
         begin += options_.chunk_size) {
      const std::size_t length =
          std::min(options_.chunk_size, instances.size() - begin);
      chunks.push_back(options_.pool->submit([&, begin, length] {
        std::vector<TrySolveResult> part = detail::solve_classes_batch(
            {instances.data() + begin, length});
        std::move(part.begin(), part.end(), solved.begin() + begin);
      }));
    }
    for (auto& chunk : chunks) chunk.get();
  } else if (!instances.empty()) {
    solved = detail::solve_classes_batch(instances);
  }

  // Adopt in key order. Warm-started results answer their requests but
  // stay out of the cache, tallied as a sequential run would have (the
  // first request misses, the duplicates hit).
  if (hinted.empty()) {
    cache_.adopt_classes(misses, solved);
  } else {
    std::vector<ClassGroup> cold;
    std::vector<TrySolveResult> cold_solved;
    for (std::size_t m = 0, h = 0; m < misses.size(); ++m) {
      if (h < hinted.size() && hinted[h] == m) {
        cache_.tally(misses[m].requests - 1, 1);
        ++h;
      } else {
        cold.push_back(misses[m]);
        cold_solved.push_back(solved[m]);
      }
    }
    cache_.adopt_classes(cold, cold_solved);
  }
  for (std::size_t m = 0; m < missed.size(); ++m) {
    out.results[valid_slot[missed[m]]] = std::move(solved[m]);
  }
  return out;
}

TrySolveResult SolverService::solve(const std::vector<int>& w, int max_stage,
                                    double packet_error_rate) const {
  return cache_.solve(w, max_stage, packet_error_rate);
}

std::size_t SolverService::pending() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return pending_.size();
}

}  // namespace smac::analytical
