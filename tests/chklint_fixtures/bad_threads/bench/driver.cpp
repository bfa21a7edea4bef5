// Fixture: negative control. A driver outside src/ may run whole
// simulators on OS threads.
#include <thread>

namespace fixture {

unsigned workers() { return std::thread::hardware_concurrency(); }

}  // namespace fixture
