#include "des/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <cxxabi.h>
#include <new>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

// chk_fiber_switch(save_sp, load_sp): push the callee-saved registers and
// the MXCSR / x87 control words on the current stack, store the stack
// pointer to *save_sp, load load_sp and pop the same frame off the stack it
// names. Every fiber that is not running has exactly such a frame on top of
// its stack; a fresh stack gets a hand-built one whose return address is
// chk_fiber_trampoline.
//
// chk_fiber_trampoline: first code run on a fresh stack. r12 holds the
// Fiber and r13 the C++ start routine (both seeded in the initial frame);
// rsp is 16-byte aligned here, so the call leaves the ABI's entry
// alignment. The start routine never returns. `.cfi_undefined rip` marks
// this the outermost frame for unwinders and debuggers.
asm(R"(
  .text
  .globl chk_fiber_switch
  .hidden chk_fiber_switch
  .type chk_fiber_switch, @function
  .p2align 4
chk_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size chk_fiber_switch, .-chk_fiber_switch

  .globl chk_fiber_trampoline
  .hidden chk_fiber_trampoline
  .type chk_fiber_trampoline, @function
  .p2align 4
chk_fiber_trampoline:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size chk_fiber_trampoline, .-chk_fiber_trampoline
)");

extern "C" void chk_fiber_switch(void** save_sp, void* load_sp);
extern "C" void chk_fiber_trampoline();

namespace chk::des {

namespace {

/// The frame chk_fiber_switch pushes, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_cw;
  std::uint16_t pad;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 64);

std::size_t page_size() noexcept {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

}  // namespace

Fiber::Fiber(Entry entry, void* arg) : entry_(entry), arg_(arg) {
  const std::size_t guard = page_size();
  map_ = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw std::system_error(errno, std::generic_category(), "des::Fiber: mmap stack");
  }
  if (mprotect(map_, guard, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map_, guard + kStackBytes);
    map_ = nullptr;
    throw std::system_error(err, std::generic_category(), "des::Fiber: mprotect guard page");
  }

  // Seed the frame chk_fiber_switch will pop on the first resume(). The
  // trampoline is entered by `ret`, so the slot above the frame is where
  // its rsp lands: keep that 16-byte aligned.
  char* const top = static_cast<char*>(map_) + guard + kStackBytes;
  auto* frame = ::new (top - 16 - sizeof(SwitchFrame)) SwitchFrame{};
  std::uint16_t x87_cw = 0;
  asm volatile("fnstcw %0" : "=m"(x87_cw));
  frame->mxcsr = __builtin_ia32_stmxcsr();
  frame->x87_cw = x87_cw;
  frame->r12 = reinterpret_cast<std::uintptr_t>(this);
  frame->r13 = reinterpret_cast<std::uintptr_t>(&Fiber::start);
  frame->ret = &chk_fiber_trampoline;
  sp_ = frame;
}

Fiber::~Fiber() { unmap(); }

void Fiber::unmap() noexcept {
  if (map_ == nullptr) return;
  munmap(map_, page_size() + kStackBytes);
  map_ = nullptr;
}

void Fiber::resume() {
  assert(map_ != nullptr && "resume of a finished fiber");
  // Swap the thread's exception state for the fiber's while it runs.
  void* const eh = abi::__cxa_get_globals();
  EhState caller_eh;
  std::memcpy(&caller_eh, eh, sizeof caller_eh);
  std::memcpy(eh, &eh_, sizeof eh_);
#if defined(__SANITIZE_ADDRESS__)
  void* caller_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&caller_fake_stack, static_cast<char*>(map_) + page_size(),
                                 kStackBytes);
  chk_fiber_switch(&caller_sp_, sp_);
  __sanitizer_finish_switch_fiber(caller_fake_stack, nullptr, nullptr);
#else
  chk_fiber_switch(&caller_sp_, sp_);
#endif
  std::memcpy(&eh_, eh, sizeof eh_);
  std::memcpy(eh, &caller_eh, sizeof caller_eh);
  if (returned_) unmap();
}

void Fiber::suspend() {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&fake_stack_, caller_stack_, caller_stack_size_);
  chk_fiber_switch(&sp_, caller_sp_);
  __sanitizer_finish_switch_fiber(fake_stack_, &caller_stack_, &caller_stack_size_);
#else
  chk_fiber_switch(&sp_, caller_sp_);
#endif
}

void Fiber::start(Fiber* self) noexcept {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &self->caller_stack_, &self->caller_stack_size_);
#endif
  self->entry_(self->arg_);
  self->returned_ = true;
#if defined(__SANITIZE_ADDRESS__)
  // A null fake-stack slot tells ASan this stack is being left for good.
  __sanitizer_start_switch_fiber(nullptr, self->caller_stack_, self->caller_stack_size_);
#endif
  chk_fiber_switch(&self->sp_, self->caller_sp_);
  __builtin_unreachable();
}

}  // namespace chk::des
