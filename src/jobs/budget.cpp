#include "jobs/budget.hpp"

#include "support/assert.hpp"

namespace plurality::jobs {

ThreadBudget& ThreadBudget::global() {
  static ThreadBudget budget;
  return budget;
}

void ThreadBudget::configure(unsigned total) {
  PC_EXPECTS(total >= 1);
  limit_.store(total, std::memory_order_relaxed);
}

}  // namespace plurality::jobs
