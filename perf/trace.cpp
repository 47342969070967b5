#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perf::trace {
namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  ///< ids of this thread's open Scopes
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_buffers_mutex;
/// Owned here, not by the threads: pool workers exit before collect().
std::vector<std::unique_ptr<Buffer>> g_buffers;

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Buffer& local_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buffer;
}

/// Self time per span (ms, same order as `spans`).
std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index_of.find(s.parent);
    if (it == index_of.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                 covered) * 1e-6;
  }
  return out;
}

std::vector<const Span*> named(const std::vector<Span>& spans,
                               std::string_view name) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(&s);
  }
  return out;
}

}  // namespace

void set_enabled(bool on) noexcept { g_enabled.store(on); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name) : name_(name) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  buffer.open.push_back(id_);
  start_ns_ = now_ns();
}

Scope::Scope(const char* name, std::uint64_t parent) : Scope(name) {
  if (id_ != 0) parent_ = parent;
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = local_buffer();
  buffer.open.pop_back();
  buffer.spans.push_back({name_, start_ns_, end, buffer.thread, id_, parent_});
}

std::vector<Span> collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

double total_ms(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const Span* s : named(spans, name)) total += s->ms();
  return total;
}

std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const Span* s : named(spans, name)) out.push_back(s->ms());
  return out;
}

FanoutUse fanout_use(const std::vector<Span>& spans, std::string_view fanout,
                     unsigned workers) {
  FanoutUse use;
  for (const Span* f : named(spans, fanout)) {
    use.capacity_ms += f->ms() * workers;
    std::unordered_map<std::uint32_t, std::int64_t> last_end;
    for (const Span& s : spans) {
      if (s.parent != f->id) continue;
      use.busy_ms += s.ms();
      std::int64_t& end = last_end[s.thread];
      end = std::max(end, s.end_ns);
    }
    if (last_end.empty()) continue;
    // A worker that never ran a child was idle for the whole fan-out.
    std::int64_t first_idle = f->start_ns;
    if (last_end.size() >= workers) {
      first_idle = f->end_ns;
      for (const auto& [thread, end] : last_end) {
        first_idle = std::min(first_idle, end);
      }
    }
    use.tail_ms += static_cast<double>(f->end_ns - first_idle) * 1e-6;
  }
  return use;
}

void append_chrome_events(std::string& out, const std::vector<Span>& spans,
                          int pid, const std::string& workload) {
  const std::vector<double> self = self_ms(spans);
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!out.empty()) out += ",\n";
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %" PRIu32
                  ", \"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                  ", \"workload\": \"%s\", \"self_us\": %.3f}}",
                  s.name, workload.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, pid,
                  s.thread, s.id, s.parent, workload.c_str(), self[i] * 1e3);
    out += line;
  }
}

}  // namespace perf::trace
