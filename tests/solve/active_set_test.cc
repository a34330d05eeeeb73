// Correctness contract of the active-set sparsified P2 solve
// (RegularizedOptions::active_set): the certified reduced solution must
// agree with the dense path within the certification tolerance, violated
// pinned variables must be admitted and re-solved, the certified support
// must seed the next slot's candidate sets (and be dropped on invalidation
// or shape change), and reduced-infeasible candidate sets must land in the
// guaranteed dense fallback — never in a wrong answer.
#include <cmath>
#include <cstddef>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solve/regularized_solver.h"

namespace eca::solve {
namespace {

RegularizedProblem random_problem(Rng& rng, std::size_t num_clouds,
                                  std::size_t num_users) {
  RegularizedProblem p;
  p.num_clouds = num_clouds;
  p.num_users = num_users;
  p.demand.resize(num_users);
  for (auto& d : p.demand) d = static_cast<double>(rng.uniform_int(1, 5));
  const double total_demand = linalg::sum(p.demand);
  p.capacity.assign(num_clouds,
                    1.3 * total_demand / static_cast<double>(num_clouds));
  p.linear_cost.resize(num_clouds * num_users);
  for (auto& v : p.linear_cost) v = rng.uniform(0.5, 3.0);
  p.recon_price.assign(num_clouds, 1.0);
  p.migration_price.assign(num_clouds, 1.0);
  p.prev.assign(num_clouds * num_users, 0.0);
  for (std::size_t j = 0; j < num_users; ++j) {
    p.prev[p.index(rng.uniform_index(num_clouds), j)] = p.demand[j];
  }
  return p;
}

TEST(ActiveSet, RandomMatchesDenseWithinCertifiedTolerance) {
  Rng rng(11);
  const RegularizedProblem p = random_problem(rng, 10, 200);
  NewtonWorkspace ws_dense;
  const RegularizedSolution dense =
      RegularizedSolver().solve(p, ws_dense);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);

  RegularizedOptions opt;
  opt.active_set = true;
  NewtonWorkspace ws;
  const RegularizedSolution active = RegularizedSolver(opt).solve(p, ws);
  ASSERT_EQ(active.status, SolveStatus::kOptimal);
  EXPECT_TRUE(active.stats.active_set);
  EXPECT_FALSE(active.stats.active_fallback);
  EXPECT_GE(active.stats.active_rounds, 1);
  EXPECT_GT(active.stats.active_nnz, 0);
  EXPECT_LT(active.stats.active_nnz,
            static_cast<long long>(p.num_clouds * p.num_users));
  // Certified: every pinned variable's reduced cost is within tolerance of
  // dual feasibility.
  EXPECT_LE(active.stats.certify_residual, opt.active_kkt_tol);

  EXPECT_NEAR(active.objective_value, dense.objective_value,
              1e-5 * (1.0 + std::abs(dense.objective_value)));
  ASSERT_EQ(active.x.size(), dense.x.size());
  for (std::size_t idx = 0; idx < dense.x.size(); ++idx) {
    EXPECT_NEAR(active.x[idx], dense.x[idx], 1e-4 * (1.0 + dense.x[idx]))
        << "x[" << idx << "]";
  }
}

TEST(ActiveSet, AdversarialInstanceForcesCertificationGrowth) {
  // Three clouds, every user: cloud 0 barely cheapest (seeded by
  // k_nearest=1), cloud 1 nearly as cheap (NOT seeded), previous slot on
  // expensive cloud 2 (seeded via prev). The migration regularizer makes
  // moving the whole demand onto cloud 0 costly — θ_j rises above cloud
  // 1's linear cost, its pinned reduced cost goes negative, and the
  // certification sweep must admit it and re-solve.
  constexpr std::size_t kI = 3;
  constexpr std::size_t kJ = 40;
  RegularizedProblem p;
  p.num_clouds = kI;
  p.num_users = kJ;
  p.demand.assign(kJ, 3.0);
  const double total_demand = linalg::sum(p.demand);
  p.capacity.assign(kI, 2.0 * total_demand);
  p.linear_cost.resize(kI * kJ);
  for (std::size_t j = 0; j < kJ; ++j) {
    p.linear_cost[p.index(0, j)] = 1.0;
    p.linear_cost[p.index(1, j)] = 1.01;
    p.linear_cost[p.index(2, j)] = 5.0;
  }
  p.recon_price.assign(kI, 1.0);
  p.migration_price.assign(kI, 1.0);
  p.prev.assign(kI * kJ, 0.0);
  for (std::size_t j = 0; j < kJ; ++j) p.prev[p.index(2, j)] = p.demand[j];

  RegularizedOptions opt;
  opt.active_set = true;
  opt.active_k_nearest = 1;
  RegularizedSolver solver(opt);
  NewtonWorkspace ws;
  const RegularizedSolution active = solver.solve(p, ws);
  ASSERT_EQ(active.status, SolveStatus::kOptimal);
  EXPECT_FALSE(active.stats.active_fallback);
  // The seed (clouds {0, 2}) cannot be certified: cloud 1 must be admitted.
  EXPECT_GE(active.stats.active_rounds, 2);
  // And the final answer uses it: cross-check against the dense path.
  NewtonWorkspace ws_dense;
  const RegularizedSolution dense = RegularizedSolver().solve(p, ws_dense);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(active.objective_value, dense.objective_value,
              1e-5 * (1.0 + std::abs(dense.objective_value)));
  double mass_on_1 = 0.0;
  for (std::size_t j = 0; j < kJ; ++j) mass_on_1 += active.x[p.index(1, j)];
  EXPECT_GT(mass_on_1, 0.1);
}

TEST(ActiveSet, SupportCarriesAcrossWarmStartedSlots) {
  // Only the candidate sets are warm-started: iterates and duals always
  // start cold, but a workspace that certified the previous slot seeds the
  // next slot's candidate sets with that support.
  Rng rng(23);
  RegularizedProblem p = random_problem(rng, 8, 150);
  RegularizedOptions opt;
  opt.active_set = true;
  RegularizedSolver solver(opt);
  NewtonWorkspace ws;
  const RegularizedSolution first = solver.solve(p, ws);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);

  // Same prev, but every user's cloud costs reversed: the k cheapest clouds
  // now sit where the first slot's support did not, so only the carry can
  // put that support back into the candidate sets.
  for (std::size_t j = 0; j < p.num_users; ++j) {
    for (std::size_t i = 0; i < p.num_clouds / 2; ++i) {
      std::swap(p.linear_cost[p.index(i, j)],
                p.linear_cost[p.index(p.num_clouds - 1 - i, j)]);
    }
  }
  const RegularizedSolution carried = solver.solve(p, ws);
  NewtonWorkspace ws_fresh;
  const RegularizedSolution fresh = solver.solve(p, ws_fresh);
  ASSERT_EQ(carried.status, SolveStatus::kOptimal);
  ASSERT_EQ(fresh.status, SolveStatus::kOptimal);
  EXPECT_FALSE(carried.stats.active_fallback);
  EXPECT_FALSE(carried.warm_started);
  EXPECT_GT(carried.stats.active_nnz, fresh.stats.active_nnz);
  EXPECT_NEAR(carried.objective_value, fresh.objective_value,
              1e-5 * (1.0 + std::abs(fresh.objective_value)));

  // Explicit invalidation (what OnlineApprox::reset() calls) drops the
  // carried support: the next solve is the fresh-workspace one, bit for
  // bit.
  ws.invalidate_support();
  const RegularizedSolution third = solver.solve(p, ws);
  ASSERT_EQ(third.status, SolveStatus::kOptimal);
  EXPECT_EQ(third.stats.active_nnz, fresh.stats.active_nnz);
  EXPECT_EQ(third.newton_iterations, fresh.newton_iterations);
  EXPECT_EQ(third.x, fresh.x);
}

TEST(ActiveSet, ShapeChangeInvalidatesCarriedSupport) {
  Rng rng(31);
  RegularizedOptions opt;
  opt.active_set = true;
  RegularizedSolver solver(opt);
  NewtonWorkspace ws;
  RegularizedProblem p = random_problem(rng, 8, 120);
  const RegularizedSolution first = solver.solve(p, ws);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  // Different user count through the same workspace: carried support and
  // duals are shape-mismatched and must be dropped, not misapplied.
  RegularizedProblem q = random_problem(rng, 8, 90);
  const RegularizedSolution second = solver.solve(q, ws);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_FALSE(second.warm_started);
  NewtonWorkspace ws_dense;
  const RegularizedSolution dense = RegularizedSolver().solve(q, ws_dense);
  EXPECT_NEAR(second.objective_value, dense.objective_value,
              1e-5 * (1.0 + std::abs(dense.objective_value)));
}

TEST(ActiveSet, ReducedInfeasibleSeedFallsBackToDense) {
  // Every user's cheapest cloud AND previous placement is cloud 0, whose
  // capacity cannot carry the total demand: with k_nearest=1 the candidate
  // set is {0} for every user, the reduced problem is capacity-infeasible,
  // and the solve must land in the dense fallback (which spreads onto the
  // expensive clouds) rather than fail.
  constexpr std::size_t kI = 3;
  constexpr std::size_t kJ = 30;
  RegularizedProblem p;
  p.num_clouds = kI;
  p.num_users = kJ;
  p.demand.assign(kJ, 2.0);
  const double total_demand = linalg::sum(p.demand);
  p.capacity = {0.4 * total_demand, 2.0 * total_demand, 2.0 * total_demand};
  p.linear_cost.resize(kI * kJ);
  for (std::size_t j = 0; j < kJ; ++j) {
    p.linear_cost[p.index(0, j)] = 0.5;
    p.linear_cost[p.index(1, j)] = 2.0;
    p.linear_cost[p.index(2, j)] = 2.0;
  }
  p.recon_price.assign(kI, 1.0);
  p.migration_price.assign(kI, 1.0);
  p.prev.assign(kI * kJ, 0.0);
  for (std::size_t j = 0; j < kJ; ++j) p.prev[p.index(0, j)] = p.demand[j];

  RegularizedOptions opt;
  opt.active_set = true;
  opt.active_k_nearest = 1;
  NewtonWorkspace ws;
  const RegularizedSolution active = RegularizedSolver(opt).solve(p, ws);
  ASSERT_EQ(active.status, SolveStatus::kOptimal);
  EXPECT_TRUE(active.stats.active_set);
  EXPECT_TRUE(active.stats.active_fallback);
  NewtonWorkspace ws_dense;
  const RegularizedSolution dense = RegularizedSolver().solve(p, ws_dense);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(active.objective_value, dense.objective_value,
              1e-9 * (1.0 + std::abs(dense.objective_value)));
}

}  // namespace
}  // namespace eca::solve
