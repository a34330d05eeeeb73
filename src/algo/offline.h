// Offline optimum: the full-horizon LP relaxation of P0 with all input
// revealed in advance (the paper's offline-opt baseline and the denominator
// of every empirical competitive ratio).
//
// Formulation over all T slots with variables x_{i,j,t}, reconfiguration
// aggregates u_{i,t} and migration aux v_{i,j,t} >= (x_t - x_{t-1})^+; the
// out-direction telescopes to Σ_t b^out (v - x_t + x_{t-1}) =
// b^out (Σ_t v - x_T), so no second aux family is needed.
//
// Solved with the dense interior-point method when small enough, and with
// the first-order PDHG solver (PDLP-lite) at benchmark scale.
#pragma once

#include "model/costs.h"
#include "model/instance.h"
#include "solve/lp_problem.h"

namespace eca::algo {

struct OfflineOptions {
  // Force a solver; kAuto picks IPM below `ipm_row_limit` total rows.
  enum class Solver { kAuto, kInteriorPoint, kPdhg };
  Solver solver = Solver::kAuto;
  std::size_t ipm_row_limit = 700;
  // First-order tolerance for the PDHG path: the stopping bound on the
  // relative primal residual and duality gap. It does not bound the
  // objective's error by the same amount, because the stop never checks
  // the dual residual (solve_offline sets gate_on_dual_residual = false):
  // on the Fig. 2 taxi hour cases the objective lands up to 2.8e-3 above
  // the interior-point optimum (tests/algo/offline_test.cc,
  // DISABLED_PdhgObjectiveWithinToleranceOnTaxiHours).
  double pdhg_tolerance = 5e-4;
  int pdhg_max_iterations = 400000;
  // Worker threads for the PDHG path (0 = resolve from ECA_LP_THREADS,
  // default serial). The solve is bit-identical for every thread count.
  int lp_threads = 0;
  // Forwarded to PdhgOptions: lifts the hardware-concurrency cap and the
  // nonzeros-per-worker floor so determinism tests can engage the pool on
  // small LPs / small machines. Leave at defaults in production.
  bool lp_oversubscribe = false;
  std::size_t lp_min_nnz_per_thread = 32768;
  // Aggregate users into horizon classes (λ_j, full attachment trajectory)
  // and solve the column-collapsed LP (agg/aggregate.h) before expanding
  // back to per-user allocations. Exact: members of a horizon class share
  // every coefficient across all T slots, so the collapsed optimum is the
  // symmetric per-user optimum with y = w·x. The LP shrinks from
  // T·(I·J + J + 2·I) rows to T·(I·C + C + 2·I), which moves the IPM/PDHG
  // crossover and large-J tractability by orders of magnitude when
  // mobility traces revisit (demand, trajectory) types.
  bool aggregate_users = false;
  bool verbose = false;
};

struct OfflineResult {
  model::AllocationSequence allocations;
  double objective_value = 0.0;  // LP objective (weighted P0)
  solve::SolveStatus status = solve::SolveStatus::kNumericalError;
  int iterations = 0;
};

// Builds the time-expanded LP (exposed for tests).
solve::LpProblem build_offline_lp(const model::Instance& instance);

OfflineResult solve_offline(const model::Instance& instance,
                            const OfflineOptions& options = {});

}  // namespace eca::algo
