// Fixture: positive control for the OS-thread half of
// no-ambient-nondeterminism. Every construct in here is banned under src/.
#include <semaphore>
#include <thread>

namespace fixture {

struct ThreadBackedProcess {
  std::binary_semaphore run{0};              // banned: thread baton
  std::counting_semaphore<4> slots{4};       // banned: thread semaphore
  std::jthread body;                         // banned: OS thread per process
};

void spawn_helper() {
  std::thread helper([] {});                 // banned: raw OS thread
  helper.join();
}

}  // namespace fixture
