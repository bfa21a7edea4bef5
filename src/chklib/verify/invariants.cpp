#include "chklib/verify/invariants.hpp"

#include <cstdlib>
#include <utility>

#include "util/format.hpp"
#include "util/logging.hpp"

namespace chk::chklib::verify {

void InvariantSink::report(std::string_view checker, Rank rank, std::string message) {
  Violation violation;
  violation.checker = std::string(checker);
  violation.rank = rank;
  violation.message = std::move(message);
  violation.when = sim_->now();
  CHK_ERROR("verify", "invariant violated [{}] rank {} at {}: {}", violation.checker,
            violation.rank, violation.when.str(), violation.message);
  violations_.push_back(std::move(violation));

  switch (policy_) {
    case Policy::kRecord:
      return;
    case Policy::kAbort:
      std::abort();
    case Policy::kThrowDeferred: {
      if (throw_scheduled_) return;
      throw_scheduled_ = true;
      // Throwing here would be swallowed if we are inside a simulated
      // process (Process::fiber_main catches everything); a zero-delay
      // kernel event always unwinds out of Simulator::run instead.
      const Violation& first = violations_.back();
      sim_->schedule_now([first] {
        throw InvariantViolation(util::format("invariant violated [{}] rank {}: {}",
                                              first.checker, first.rank, first.message));
      });
      return;
    }
  }
}

}  // namespace chk::chklib::verify
