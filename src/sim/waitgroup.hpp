// Fork/join support: run several Tasks concurrently inside one process and
// wait for all of them (used for striped transfers, collective I/O
// aggregators, and workflow stages).
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/error.hpp"

namespace wasp::sim {

/// Fire-and-forget coroutine: starts immediately and self-destructs on
/// completion. Exceptions must not escape (they would std::terminate), so it
/// is only created by WaitGroup, which routes errors into the group.
struct Detached {
  struct promise_type {
    Detached get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

/// Counts outstanding children; wait() resumes when all have finished.
/// The first child exception is rethrown from wait(). It parks its one
/// waiter's handle, which the last child to finish schedules at now().
class WaitGroup {
 public:
  explicit WaitGroup(Engine& eng) : eng_(eng) {}
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// Launch a child task under this group. The child begins executing
  /// immediately (synchronously up to its first suspension).
  void launch(Task<void> task) {
    ++outstanding_;
    run_child(std::move(task));
  }

  auto wait() noexcept {
    struct [[nodiscard]] Awaiter {
      WaitGroup& wg;
      bool await_ready() const noexcept { return wg.outstanding_ == 0; }
      void await_suspend(std::coroutine_handle<> h) {
        WASP_CHECK_MSG(!wg.waiter_, "WaitGroup: concurrent wait()");
        wg.waiter_ = h;
      }
      void await_resume() {
        if (wg.error_) std::rethrow_exception(std::exchange(wg.error_, {}));
      }
    };
    return Awaiter{*this};
  }

  std::size_t outstanding() const noexcept { return outstanding_; }

 private:
  Detached run_child(Task<void> task) {
    try {
      co_await std::move(task);
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
    if (--outstanding_ == 0 && waiter_) {
      eng_.schedule(eng_.now(), std::exchange(waiter_, {}));
    }
  }

  Engine& eng_;
  std::coroutine_handle<> waiter_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

}  // namespace wasp::sim
