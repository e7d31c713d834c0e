// Shared machinery of the repository benchmark: run arguments, the report
// each run prints, process-tree accounting, exact order statistics, the
// closed-loop generator, and the benchmark's own span log with the timing
// Upscaler decorator used by traced runs.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "models/upscaler.h"
#include "obs/trace.h"
#include "serve/future.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CLOCK_MONOTONIC nanoseconds — the clock obs::trace_now_ns() uses, so the
/// benchmark's spans line up with in-program traces of the same run.
[[nodiscard]] inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome-trace span file.
  std::string out_dir = ".bench_build/out";
};

// ---- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints: the gated metrics (the JSON `metrics` object)
/// plus human-readable settings and diagnostics lines.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void line(const std::string& text) { lines.push_back(text); }
};

[[nodiscard]] std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---- process accounting ---------------------------------------------------

/// CPU seconds (user + system) and peak resident set (VmHWM) of one process.
struct ProcUsage {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
};

/// This process: CLOCK_PROCESS_CPUTIME_ID and /proc/self/status.
[[nodiscard]] ProcUsage self_usage();
/// A child process: utime + stime from /proc/<pid>/stat and VmHWM from
/// /proc/<pid>/status. Must be read before the child is reaped.
[[nodiscard]] ProcUsage child_usage(pid_t pid);

// ---- order statistics -----------------------------------------------------

/// Exact nearest-rank percentile (q in [0, 100]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest percentile of {90, 95, 99, 99.9, 99.99} with at least ten
/// samples beyond it, its value and the sample count (pct 0 when fewer than
/// 100 samples).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  int64_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& samples);

// ---- spans ----------------------------------------------------------------

/// The benchmark's own spans, kept in memory and written out at exit. A span
/// opened while another is open on the same thread becomes its child; one
/// opened on a thread with nothing open starts a new trace.
class SpanLog {
 public:
  struct Span {
    uint64_t trace_id;
    uint64_t span_id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
    const char* name;  ///< string literal
    uint32_t tid;
  };

  /// Recording switch; a closed log costs one relaxed load per span site.
  void set_open(bool open) { open_.store(open, std::memory_order_relaxed); }
  [[nodiscard]] bool open() const { return open_.load(std::memory_order_relaxed); }

  [[nodiscard]] uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& span);

  /// Spans named `name` (snapshot copy).
  [[nodiscard]] std::vector<Span> named(const char* name) const;
  /// Durations in milliseconds of spans named `name`.
  [[nodiscard]] std::vector<double> durations_ms(const char* name) const;
  [[nodiscard]] std::vector<sesr::obs::SpanRecord> records() const;

 private:
  std::atomic<bool> open_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on the calling thread (inert when `log` is null or closed).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_ = nullptr;
  SpanLog::Span span_{};
  const SpanLog::Span* saved_parent_ = nullptr;
};

/// Timing decorator: forwards every call to `inner` inside a span. Server,
/// ModelRegistry::publish and DefensePipeline all take it as an Upscaler.
class TimedUpscaler final : public sesr::models::Upscaler {
 public:
  TimedUpscaler(std::shared_ptr<sesr::models::Upscaler> inner, SpanLog& log, const char* name)
      : inner_(std::move(inner)), log_(log), name_(name) {}

  sesr::Tensor upscale(const sesr::Tensor& low_res) override {
    ScopedSpan span(&log_, name_);
    return inner_->upscale(low_res);
  }
  void upscale_batch(const sesr::Tensor& low_res, std::span<sesr::Tensor> per_image) override {
    ScopedSpan span(&log_, name_);
    inner_->upscale_batch(low_res, per_image);
  }
  [[nodiscard]] std::string label() const override { return inner_->label(); }
  [[nodiscard]] int64_t num_params() const override { return inner_->num_params(); }
  [[nodiscard]] int64_t macs_for(const sesr::Shape& chw) const override {
    return inner_->macs_for(chw);
  }

 private:
  std::shared_ptr<sesr::models::Upscaler> inner_;
  SpanLog& log_;
  const char* name_;
};

/// Write `log` as Chrome-trace JSON to `path`, then read it back through
/// obs::parse_chrome_trace and obs::validate_span_nesting (the checks
/// sesr_tracecat runs). Returns the problems found (empty = valid).
[[nodiscard]] std::vector<std::string> write_span_file(const SpanLog& log,
                                                       const std::string& path);

// ---- closed loop ----------------------------------------------------------

/// A request the generator draws: which class, and which pooled input.
struct Draw {
  int32_t klass = 0;
  int32_t index = 0;
};

/// Submits one request; must deliver exactly one reply to `done`.
using SubmitFn = std::function<void(const Draw& draw, sesr::serve::ServeCallback done)>;
/// Is `reply` the correct answer to `draw`? (kOk and bit-identical.)
using CheckFn = std::function<bool(const Draw& draw, const sesr::serve::ServeReply& reply)>;

/// One closed-loop window: a single generator thread keeps `in_flight`
/// requests outstanding until `seconds` pass or `max_requests` (0 = no
/// limit) have been submitted, then drains.
struct Loop {
  int in_flight = 1;
  double seconds = 0.0;
  int64_t max_requests = 0;
  /// Completions recorded without growing the sample store. The store is
  /// touched up front, so the benchmark's own memory does not follow the
  /// program's speed into peak_rss_mb.
  int64_t capacity = 0;
  std::function<Draw()> next;
  SubmitFn submit;
  CheckFn check;
  /// When open, every request records a root span from submit to reply
  /// named span_names[class].
  SpanLog* spans = nullptr;
  std::vector<const char*> span_names;
};

/// Outcome of one closed-loop window.
struct LoopResult {
  int64_t attempted = 0;
  int64_t ok = 0;
  double wall_s = 0.0;
  /// Share of the host's vCPU time the hypervisor stole during the window
  /// (/proc/stat): tells a contended host from a slow program.
  double host_steal = 0.0;
  std::vector<std::string> errors;  ///< first few failures

  /// Submit-to-reply latency of every correct reply (of one class).
  [[nodiscard]] std::vector<double> latency_ms() const;
  [[nodiscard]] std::vector<double> class_ms(int klass) const;

  std::vector<uint32_t> latency_ns;  ///< per completion, saturating
  std::vector<uint8_t> klass;        ///< per completion; kFailed bit = wrong reply
  static constexpr uint8_t kFailed = 0x80;
};

[[nodiscard]] LoopResult closed_loop(const Loop& loop);

/// Bit-identity of two tensors (shape and every float's bits).
[[nodiscard]] bool bit_identical(const sesr::Tensor& a, const sesr::Tensor& b);

// ---- workloads ------------------------------------------------------------

[[nodiscard]] Report run_edge_frames(const Args& args);
[[nodiscard]] Report run_tiles_remote(const Args& args);
[[nodiscard]] Report run_mixed_local(const Args& args);

}  // namespace perfbench
