// Verifies the zero-allocation guarantee of the Newton iteration loop in
// RegularizedSolver::solve(p, workspace): with a warmed workspace, the
// number of heap allocations per solve must be independent of how many
// Newton iterations run. A counting global operator new makes the check
// exact — if anything inside the loop allocated, a tighter tolerance
// (more iterations) would allocate more.
//
// This TU replaces the global allocator, so it gets its own test binary.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "solve/regularized_solver.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace eca::solve {
namespace {

RegularizedProblem sample_problem() {
  RegularizedProblem p;
  p.num_clouds = 4;
  p.num_users = 8;
  p.demand.assign(p.num_users, 2.0);
  p.capacity.assign(p.num_clouds, 1.5 * linalg::sum(p.demand) /
                                      static_cast<double>(p.num_clouds));
  p.linear_cost.resize(p.num_clouds * p.num_users);
  for (std::size_t i = 0; i < p.num_clouds; ++i) {
    for (std::size_t j = 0; j < p.num_users; ++j) {
      p.linear_cost[p.index(i, j)] =
          0.5 + 0.1 * static_cast<double>((3 * i + 5 * j) % 11);
    }
  }
  p.recon_price.assign(p.num_clouds, 1.0);
  p.migration_price.assign(p.num_clouds, 1.0);
  p.prev.assign(p.num_clouds * p.num_users, 0.0);
  for (std::size_t j = 0; j < p.num_users; ++j) {
    p.prev[p.index(j % p.num_clouds, j)] = p.demand[j];
  }
  return p;
}

struct SolveProfile {
  std::size_t allocations;
  int newton_iterations;
};

SolveProfile profile(const RegularizedProblem& p,
                     const RegularizedOptions& options,
                     NewtonWorkspace& ws) {
  g_alloc_count.store(0);
  g_counting.store(true);
  const RegularizedSolution sol = RegularizedSolver(options).solve(p, ws);
  g_counting.store(false);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  return {g_alloc_count.load(), sol.stats.newton_iterations};
}

TEST(NewtonAlloc, IterationLoopIsAllocationFree) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  const RegularizedProblem p = sample_problem();
  // Every solve cold-starts, so the iteration count below is controlled by
  // final_mu alone.
  RegularizedOptions loose;
  loose.final_mu = 1e-4;
  RegularizedOptions tight;
  tight.final_mu = 1e-10;

  NewtonWorkspace ws;
  // Warm the workspace so setup (resize) allocations are out of the picture.
  (void)RegularizedSolver(tight).solve(p, ws);

  const SolveProfile few = profile(p, loose, ws);
  const SolveProfile many = profile(p, tight, ws);
  // The comparison is only meaningful if the tolerances actually change the
  // iteration count.
  ASSERT_GT(many.newton_iterations, few.newton_iterations);
  // Identical allocation totals across different iteration counts ⇒ zero
  // allocations inside the loop (what remains is validate() plus the
  // returned solution vectors, both iteration-independent).
  EXPECT_EQ(few.allocations, many.allocations);
}

TEST(NewtonAlloc, IterationLoopIsAllocationFreeWithMetricsEnabled) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counting is unreliable under sanitizers";
#endif
  // The observability instrumentation must preserve the guarantee: metric
  // handles are cached in function-local statics and add()/record() on them
  // never allocate, so the per-solve allocation count stays independent of
  // the iteration count with ECA_METRICS on.
  const bool previous_enabled = obs::set_metrics_enabled(true);
  const RegularizedProblem p = sample_problem();
  RegularizedOptions loose;
  loose.final_mu = 1e-4;
  RegularizedOptions tight;
  tight.final_mu = 1e-10;

  NewtonWorkspace ws;
  // Warm-up solve with metrics enabled: registers the handle statics (the
  // one-time registration does allocate) and sizes the workspace.
  (void)RegularizedSolver(tight).solve(p, ws);

  const SolveProfile few = profile(p, loose, ws);
  const SolveProfile many = profile(p, tight, ws);
  obs::set_metrics_enabled(previous_enabled);
  ASSERT_GT(many.newton_iterations, few.newton_iterations);
  EXPECT_EQ(few.allocations, many.allocations);
}

TEST(NewtonAlloc, WorkspaceReuseMatchesFreshWorkspace) {
  const RegularizedProblem p = sample_problem();
  // Reusing the scratch buffers must not change the arithmetic: the second
  // solve on `ws` reproduces the fresh-workspace one.
  const RegularizedOptions opt;
  const RegularizedSolution fresh = RegularizedSolver(opt).solve(p);
  NewtonWorkspace ws;
  (void)RegularizedSolver(opt).solve(p, ws);
  const RegularizedSolution reused = RegularizedSolver(opt).solve(p, ws);
  ASSERT_EQ(fresh.status, SolveStatus::kOptimal);
  ASSERT_EQ(reused.status, SolveStatus::kOptimal);
  EXPECT_EQ(fresh.stats.newton_iterations, reused.stats.newton_iterations);
  ASSERT_EQ(fresh.x.size(), reused.x.size());
  for (std::size_t idx = 0; idx < fresh.x.size(); ++idx) {
    EXPECT_EQ(fresh.x[idx], reused.x[idx]) << "x[" << idx << "]";
  }
  EXPECT_EQ(fresh.objective_value, reused.objective_value);
}

}  // namespace
}  // namespace eca::solve
