#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench.h"

namespace perfbench {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(std::max(size, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

// ---- process accounting ---------------------------------------------------

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double vm_hwm_mb(const std::string& status_path) {
  const std::string status = read_file(status_path);
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) throw std::runtime_error("no VmHWM in " + status_path);
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB -> MB
}

}  // namespace

ProcUsage self_usage() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return {static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec),
          vm_hwm_mb("/proc/self/status")};
}

ProcUsage child_usage(pid_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = read_file(base + "/stat");
  // The command name may hold spaces; fields are counted after its ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("malformed " + base + "/stat");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);  // utime, stime
  return {ticks / static_cast<double>(::sysconf(_SC_CLK_TCK)), vm_hwm_mb(base + "/status")};
}

// ---- order statistics -----------------------------------------------------

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::clamp(std::ceil(q / 100.0 * n), 1.0, n)) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

Tail tail_of(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  const double n = static_cast<double>(samples.size());
  for (const double pct : {90.0, 95.0, 99.0, 99.9, 99.99}) {
    if (n - std::ceil(pct / 100.0 * n) < 10.0) break;
    tail.pct = pct;
  }
  if (tail.pct > 0.0) tail.value = percentile(samples, tail.pct);
  return tail;
}

// ---- spans ----------------------------------------------------------------

namespace {

thread_local const SpanLog::Span* t_open_span = nullptr;

uint32_t thread_index() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

void SpanLog::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanLog::Span> SpanLog::named(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& span : spans_)
    if (std::strcmp(span.name, name) == 0) out.push_back(span);
  return out;
}

std::vector<double> SpanLog::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& span : named(name))
    out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  return out;
}

std::vector<sesr::obs::SpanRecord> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<sesr::obs::SpanRecord> out;
  out.reserve(spans_.size());
  const auto pid = static_cast<int32_t>(::getpid());
  for (const Span& span : spans_)
    out.push_back({span.trace_id, span.span_id, span.parent, span.start_ns,
                   span.end_ns - span.start_ns, span.tid, pid, span.name});
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name) {
  if (log == nullptr || !log->open()) return;
  log_ = log;
  saved_parent_ = t_open_span;
  span_.span_id = log->next_id();
  span_.trace_id = saved_parent_ != nullptr ? saved_parent_->trace_id : log->next_id();
  span_.parent = saved_parent_ != nullptr ? saved_parent_->span_id : 0;
  span_.name = name;
  span_.tid = thread_index();
  t_open_span = &span_;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = now_ns();
  t_open_span = saved_parent_;
  log_->record(span_);
}

std::vector<std::string> write_span_file(const SpanLog& log, const std::string& path) {
  const std::vector<sesr::obs::SpanRecord> records = log.records();
  {
    std::ofstream out(path);
    out << sesr::obs::chrome_trace_json(records);
    if (!out) return {"cannot write " + path};
  }
  std::vector<std::string> problems;
  try {
    const std::vector<sesr::obs::SpanRecord> parsed =
        sesr::obs::parse_chrome_trace(read_file(path));
    if (parsed.size() != records.size())
      problems.push_back(format("%s: %zu spans written, %zu parsed back", path.c_str(),
                                records.size(), parsed.size()));
    for (const std::string& violation : sesr::obs::validate_span_nesting(parsed))
      problems.push_back(violation);
  } catch (const std::exception& error) {
    problems.push_back(path + ": " + error.what());
  }
  return problems;
}

// ---- closed loop ----------------------------------------------------------

bool bit_identical(const sesr::Tensor& a, const sesr::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

namespace {

/// Steal and total ticks of all vCPUs, from the aggregate line of /proc/stat
/// ("cpu user nice system idle iowait irq softirq steal ...").
std::pair<double, double> host_steal_ticks() {
  std::istringstream fields(read_file("/proc/stat"));
  std::string label;
  fields >> label;
  double total = 0.0;
  double value = 0.0;
  for (int i = 0; i < 8 && fields >> value; ++i) total += value;
  return {value, total};
}

/// State shared between the generator and completion callbacks; callbacks
/// hold a reference, so it outlives the last of them.
struct LoopState {
  struct Slot {
    int64_t start_ns = 0;
    Draw draw;
  };

  explicit LoopState(const Loop& loop)
      : check(loop.check), slots(static_cast<size_t>(loop.in_flight)) {
    for (int i = loop.in_flight - 1; i >= 0; --i) free_slots.push_back(i);
    result.latency_ns.resize(static_cast<size_t>(std::max<int64_t>(loop.capacity, 1)));
    result.klass.resize(result.latency_ns.size());
  }

  CheckFn check;
  std::vector<Slot> slots;  // slot i: written by the generator while free

  std::mutex mutex;  // guards everything below
  std::condition_variable cv;
  std::vector<int> free_slots;
  size_t completed = 0;
  LoopResult result;
};

}  // namespace

std::vector<double> LoopResult::latency_ms() const {
  std::vector<double> out;
  for (size_t i = 0; i < latency_ns.size(); ++i)
    if ((klass[i] & kFailed) == 0) out.push_back(static_cast<double>(latency_ns[i]) / 1e6);
  return out;
}

std::vector<double> LoopResult::class_ms(int wanted) const {
  std::vector<double> out;
  for (size_t i = 0; i < latency_ns.size(); ++i)
    if (klass[i] == wanted) out.push_back(static_cast<double>(latency_ns[i]) / 1e6);
  return out;
}

LoopResult closed_loop(const Loop& loop) {
  auto state = std::make_shared<LoopState>(loop);
  SpanLog* spans = loop.spans != nullptr && loop.spans->open() ? loop.spans : nullptr;
  const auto [steal0, total0] = host_steal_ticks();
  const int64_t start = now_ns();
  const int64_t deadline = start + static_cast<int64_t>(loop.seconds * 1e9);

  int64_t submitted = 0;
  for (;; ++submitted) {
    int slot = 0;
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->cv.wait(lock, [&] { return !state->free_slots.empty(); });
      if (now_ns() >= deadline || (loop.max_requests > 0 && submitted >= loop.max_requests))
        break;
      slot = state->free_slots.back();
      state->free_slots.pop_back();
    }
    LoopState::Slot& request = state->slots[static_cast<size_t>(slot)];
    request.draw = loop.next();
    const char* span_name =
        spans != nullptr ? loop.span_names.at(static_cast<size_t>(request.draw.klass)) : nullptr;
    request.start_ns = now_ns();
    loop.submit(request.draw, [state, slot, spans, span_name](sesr::serve::ServeReply reply) {
      const int64_t end = now_ns();
      const LoopState::Slot& done = state->slots[static_cast<size_t>(slot)];
      const bool good = state->check(done.draw, reply);
      if (span_name != nullptr)
        spans->record({spans->next_id(), spans->next_id(), 0, done.start_ns, end, span_name,
                       thread_index()});
      const int64_t latency = std::clamp<int64_t>(end - done.start_ns, 0, UINT32_MAX);
      std::lock_guard<std::mutex> lock(state->mutex);
      LoopResult& result = state->result;
      if (state->completed == result.latency_ns.size()) {
        result.latency_ns.resize(2 * state->completed);
        result.klass.resize(2 * state->completed);
      }
      result.latency_ns[state->completed] = static_cast<uint32_t>(latency);
      result.klass[state->completed] =
          static_cast<uint8_t>(done.draw.klass) | (good ? 0 : LoopResult::kFailed);
      ++state->completed;
      if (good) {
        ++result.ok;
      } else if (result.errors.size() < 5) {
        result.errors.push_back(format("class %d input %d: %s %s", done.draw.klass,
                                       done.draw.index,
                                       sesr::serve::serve_status_name(reply.status),
                                       reply.ok() ? "output differs from reference"
                                                  : reply.error.c_str()));
      }
      state->free_slots.push_back(slot);
      state->cv.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->cv.wait(lock, [&] {
    return state->free_slots.size() == static_cast<size_t>(loop.in_flight);
  });
  LoopResult result = std::move(state->result);
  result.latency_ns.resize(state->completed);
  result.klass.resize(state->completed);
  result.attempted = submitted;
  result.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  const auto [steal1, total1] = host_steal_ticks();
  result.host_steal = total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  return result;
}

}  // namespace perfbench
