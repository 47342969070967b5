// Span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each src/ layer; the library itself is not instrumented. Each
// thread appends to its own buffer (no lock on the hot path), and the
// buffers are read once, after every fan-out has joined. While recording
// is disabled — the whole untraced timed region — a Scope does nothing but
// test one flag, so the timed and the traced runs can share code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perf::trace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< steady clock, since the process trace epoch
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;   ///< dense per-process thread number
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root

  double ms() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

/// Turns recording on or off for every thread. Only flip it while no
/// Scope is open.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

/// Records [construction, destruction) on the calling thread. The parent
/// is the innermost open Scope of this thread unless one is given — pass
/// it explicitly for work a pool runs on another thread.
class Scope {
 public:
  explicit Scope(const char* name);
  Scope(const char* name, std::uint64_t parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// 0 when recording is disabled.
  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Every span recorded so far, from every thread, ordered by start time.
/// Call only when no other thread is recording.
std::vector<Span> collect();

/// Summed duration (ms) of the spans named `name`.
double total_ms(const std::vector<Span>& spans, std::string_view name);
/// Durations (ms) of the spans named `name`, in start order.
std::vector<double> durations_ms(const std::vector<Span>& spans,
                                 std::string_view name);

/// How well the children of every span named `fanout` kept `workers`
/// threads busy, summed over those spans: busy = Σ child ms, capacity =
/// workers × fan-out ms, tail = fan-out end minus the moment the first
/// worker ran out of children (its last child's end).
struct FanoutUse {
  double busy_ms = 0.0;
  double capacity_ms = 0.0;
  double tail_ms = 0.0;
};
FanoutUse fanout_use(const std::vector<Span>& spans, std::string_view fanout,
                     unsigned workers);

/// Appends the spans as Chrome trace-event objects ("ph": "X"),
/// comma-separated without enclosing brackets, so fragments of several
/// processes can be joined into one traceEvents array. args.self_us is a
/// span's duration minus the part the union of its children covers.
void append_chrome_events(std::string& out, const std::vector<Span>& spans,
                          int pid, const std::string& workload);

}  // namespace perf::trace
