#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinNs = 60'000;
  const std::int64_t wait = deadline_ns - now_ns();
  if (wait > kSpinNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait - kSpinNs));
  while (now_ns() < deadline_ns) {
  }
}

// ---- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

std::size_t beyond_count(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

}  // namespace

Percentile percentile(const std::vector<double>& samples, double q) {
  Percentile p;
  p.samples = samples.size();
  p.beyond = beyond_count(samples.size(), q);
  p.valid = p.beyond >= 10;
  p.value = quantile(samples, q);
  return p;
}

Percentile median_of_windows(const std::vector<Percentile>& windows) {
  std::vector<double> values;
  Percentile p;
  p.samples = ~std::size_t{0};
  p.beyond = ~std::size_t{0};
  for (const Percentile& w : windows) {
    if (!w.valid) continue;
    values.push_back(w.value);
    p.samples = std::min(p.samples, w.samples);
    p.beyond = std::min(p.beyond, w.beyond);
  }
  p.windows = values.size();
  p.valid = !values.empty();
  if (!p.valid) return Percentile{};
  p.value = median(values);
  return p;
}

Percentile windowed_percentile(const std::vector<std::vector<double>>& groups,
                               double q) {
  std::vector<Percentile> windows;
  for (const auto& g : groups) windows.push_back(percentile(g, q));
  return median_of_windows(windows);
}

// ---- spans -------------------------------------------------------------------

namespace {

std::atomic<bool> g_trace_on{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_thread{1};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  ///< ids of the open spans, innermost last
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> all;
  return all;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = g_next_thread.fetch_add(1);
    owned->spans.reserve(1 << 14);
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffers().push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

}  // namespace

void trace_enable(bool on) { g_trace_on.store(on); }
bool trace_enabled() { return g_trace_on.load(std::memory_order_relaxed); }

ScopedSpan::ScopedSpan(const char* name, std::uint64_t event,
                       std::int64_t tick) {
  if (!trace_enabled()) return;
  active_ = true;
  ThreadBuffer& buf = local_buffer();
  span_.name = name;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buf.open.empty() ? 0 : buf.open.back();
  span_.event = event;
  span_.tick = tick;
  span_.thread = buf.thread;
  buf.open.push_back(span_.id);
  span_.t0 = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.t1 = now_ns();
  ThreadBuffer& buf = local_buffer();
  buf.open.pop_back();
  buf.spans.push_back(span_);
}

std::vector<Span> trace_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& b : buffers())
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

std::vector<double> span_durations_us(const char* name) {
  std::vector<double> out;
  const std::string key(name);
  for (const Span& s : trace_spans())
    if (key == s.name) out.push_back(static_cast<double>(s.t1 - s.t0) * 1e-3);
  return out;
}

void trace_write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("trace: could not write %s\n", path.c_str());
    return;
  }
  const std::vector<Span> spans = trace_spans();
  std::int64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans) base = std::min(base, s.t0);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"event\":%llu,\"tick\":%lld}}%s\n",
                 s.name, s.thread, static_cast<double>(s.t0 - base) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.event),
                 static_cast<long long>(s.tick),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
}

// ---- report --------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_[name] = {value, unit};
  std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void Report::percentile(const std::string& name, const Percentile& p,
                        double scale, const std::string& unit,
                        const std::string& note) {
  if (!p.valid) {
    std::printf("  %-32s %14s %-6s not measured: fewer than 10 samples "
                "beyond it\n",
                name.c_str(), "-", unit.c_str());
    return;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu, %zu beyond%s", p.samples, p.beyond,
                p.windows > 1 ? (", per window; median of " +
                                 std::to_string(p.windows) + " windows")
                                    .c_str()
                              : "");
  metric(name, p.value * scale, unit,
         note.empty() ? std::string(buf) : std::string(buf) + "; " + note);
}

void Report::fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 20) std::printf("CHECK FAILED: %s\n", what.c_str());
}

int Report::emit(const std::vector<std::string>& keys) const {
  for (const auto& k : keys)
    if (metrics_.count(k) == 0) {
      std::printf("error: metric %s was not measured\n", k.c_str());
      return 2;
    }
  const std::size_t attempted = std::max<std::size_t>(attempted_, 1);
  std::printf("failed_frac = %.6g (%zu failed of %zu attempted)\n",
              static_cast<double>(failed_) / static_cast<double>(attempted),
              failed_, attempted);
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Value& v = metrics_.at(keys[i]);
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v.value);
    if (i != 0) line += ", ";
    line += "\"" + keys[i] + "\": {\"value\": " + num + ", \"unit\": \"" +
            v.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pb
