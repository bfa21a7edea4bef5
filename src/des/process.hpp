// Simulated process.
//
// A Process runs a user-supplied body on its own stack (a des::Fiber, see
// fiber.hpp) on the simulator's OS thread. The kernel switches into the
// process from an event callback and the process switches back when it
// blocks or finishes, so exactly one of them runs at any instant and no
// state is ever shared between OS threads. Blocking primitives (delay,
// semaphores, mailboxes) park the process in suspend(); a waker schedules
// a kernel event that switches back into it. Killing a process throws
// ProcessKilled at its current suspension point, on its own stack, so that
// unwinding runs RAII cleanups.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "des/fiber.hpp"
#include "des/simulator.hpp"
#include "des/time.hpp"

namespace chk::des {

class Process {
 public:
  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] TimePoint now() const noexcept { return sim_->now(); }

  [[nodiscard]] bool finished() const noexcept { return state_ == State::kFinished; }
  [[nodiscard]] bool kill_requested() const noexcept { return killed_; }
  /// Set when the body terminated by an uncaught exception other than
  /// ProcessKilled; holds the exception's what().
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  // ---- Blocking primitives; callable only from this process's own body ----

  /// Advance simulated time by `d` without consuming any modelled resource.
  void delay(Duration d);

  /// Yield to other work scheduled at the current instant.
  void yield();

  /// Park until resumed. `cancel` must undo the external wake source (e.g.
  /// remove this process from a wait list); the kernel invokes it if the
  /// process is killed while parked, so that no stale waker fires later.
  /// Throws ProcessKilled after a kill.
  void suspend(InlineFn cancel);

  /// Drop the pending suspend-cancel callback. Blocking primitives call
  /// this from their destructors for every process still on their wait
  /// list: if the primitive dies before the parked process is killed
  /// (owner destroyed before the simulator shuts down), the callback
  /// would otherwise touch the primitive's freed wait list.
  void detach_cancel() noexcept { cancel_.reset(); }

 private:
  friend class Simulator;

  enum class State : std::uint8_t {
    kCreated,   ///< spawn event scheduled, body not yet entered
    kRunning,   ///< executing on its fiber
    kReady,     ///< resume event scheduled
    kBlocked,   ///< parked in suspend()
    kFinished,  ///< body returned / unwound
  };

  Process(Simulator& sim, std::uint64_t id, std::string name, ProcessFn body);

  /// Fiber entry: runs the body (unless killed before it started), then
  /// reports the exit. Returning from here finishes the fiber.
  static void fiber_main(void* self) noexcept;
  void check_in_body() const;

  Simulator* sim_;
  std::uint64_t id_;
  std::string name_;
  State state_ = State::kCreated;
  bool killed_ = false;
  std::string error_;
  InlineFn cancel_;  // valid while kBlocked
  ProcessFn body_;   // moved out when the fiber starts
  Fiber fiber_;
};

}  // namespace chk::des
