// Stackful user-space execution context for simulated processes.
//
// A Fiber owns an mmap'd stack and runs one entry function on it. The
// kernel enters the fiber with resume(); the fiber hands control back with
// suspend() and, when its entry function returns, for good. Switching is a
// hand-written x86-64 routine that saves only what the System V ABI makes
// callee-saved (rbx, rbp, r12-r15, MXCSR, x87 control word); a switch
// never enters the OS kernel or its scheduler.
//
// Everything runs on the OS thread that calls resume(). Three pieces of
// state that an OS thread would have given each process for free are kept
// per fiber instead:
//
//   * the stack: a fixed 8 MiB MAP_NORESERVE mapping (the default pthread
//     stack size) with a PROT_NONE guard page at its low end, so runaway
//     recursion faults instead of overwriting a neighbour. The mapping is
//     released by the resume() call that sees the entry function return,
//     so finished processes hold no address-space mappings;
//   * the C++ exception state (__cxa_get_globals: the caught-exception
//     chain and the uncaught count). A fiber parked inside a catch block
//     must not see, or corrupt, the exceptions of whoever runs next;
//   * under AddressSanitizer, the stack bounds and fake stack, reported
//     through __sanitizer_{start,finish}_switch_fiber on every switch.
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#error "des::Fiber switches stacks with hand-written x86-64 assembly; no other target is built or tested"
#endif

namespace chk::des {

class Fiber {
 public:
  using Entry = void (*)(void* arg) noexcept;

  /// Map a stack and prepare `entry(arg)` to run on it at the first
  /// resume(). Throws std::system_error if the stack cannot be mapped.
  Fiber(Entry entry, void* arg);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it calls suspend() or its entry function returns;
  /// in the latter case the stack is unmapped before resume() returns.
  /// Precondition: the entry function has not returned yet. Called from
  /// outside the fiber only.
  void resume();

  /// Return control to the caller of resume(); returns when the fiber is
  /// next resumed. Called from inside the fiber only.
  void suspend();

 private:
  /// Usable stack bytes per fiber (the guard page comes on top).
  static constexpr std::size_t kStackBytes = std::size_t{8} << 20;

  /// First frame on a fresh stack: runs the entry function, then leaves
  /// the fiber for the last time.
  [[noreturn]] static void start(Fiber* self) noexcept;
  void unmap() noexcept;

  /// Mirrors libstdc++'s __cxa_eh_globals: caught-exception chain head
  /// and uncaught-exception count.
  struct EhState {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  Entry entry_;
  void* arg_;
  void* map_ = nullptr;        // guard page + stack; nullptr once unmapped
  void* sp_ = nullptr;         // fiber's saved stack pointer while it is out
  void* caller_sp_ = nullptr;  // resume() caller's saved stack pointer
  bool returned_ = false;      // entry function has returned
  EhState eh_;                 // fiber's exception state while it is out
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack_ = nullptr;
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_size_ = 0;
#endif
};

}  // namespace chk::des
