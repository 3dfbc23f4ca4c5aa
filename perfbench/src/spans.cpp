#include "spans.hpp"

#include <atomic>

namespace perfbench {
namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Spans this thread has open, innermost last.
std::vector<int>& open_stack() {
  thread_local std::vector<int> stack;
  return stack;
}

}  // namespace

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

int SpanLog::open(const char* name, int iteration) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, 0, -1, iteration, thread_index()});
  root_ = static_cast<int>(spans_.size()) - 1;
  open_stack().push_back(root_);
  return root_;
}

int SpanLog::open(const char* name) {
  const std::uint64_t t = now_ns();
  auto& stack = open_stack();
  std::lock_guard<std::mutex> lock(mu_);
  const int parent = stack.empty() ? root_ : stack.back();
  const int iteration = parent < 0 ? -1 : spans_[parent].iteration;
  spans_.push_back({name, t, 0, parent, iteration, thread_index()});
  stack.push_back(static_cast<int>(spans_.size()) - 1);
  return stack.back();
}

void SpanLog::close(int index) {
  const std::uint64_t t = now_ns();
  auto& stack = open_stack();
  if (!stack.empty() && stack.back() == index) stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
  if (index == root_) root_ = -1;
}

IterationTimes SpanLog::times(int iteration) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Child time on the parent's own thread; a span on a pool worker runs
  // beside its parent rather than inside it, so it is not subtracted.
  std::map<int, std::uint64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    if (s.iteration != iteration || s.parent < 0) continue;
    if (spans_[static_cast<std::size_t>(s.parent)].thread != s.thread) {
      continue;
    }
    child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  IterationTimes out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.iteration != iteration) continue;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(static_cast<int>(i));
    const std::uint64_t inner = it == child_ns.end() ? 0 : it->second;
    const double self = static_cast<double>(dur - inner) * 1e-9;
    if (s.parent < 0) {
      out.unaccounted_s = self;
    } else {
      out.self_s[s.name] += self;
    }
  }
  return out;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"iteration\":" << s.iteration << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
