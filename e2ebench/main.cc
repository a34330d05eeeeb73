// e2e_bench: runs one workload of the paper-protocol benchmark and prints a
// one-line JSON report (metrics with units, operation counts, check misses,
// the first round's costs run.py compares against recorded references, and a
// hardware/provenance block).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A round is one pass of the protocol over the instance set the seed
// generates. --trace 0 repeats rounds until --seconds have passed and
// reports end-to-end figures as medians over rounds.
// --trace 1 runs a round untraced twice (warm-up, then the overhead
// reference), then once under an installed trace session, and reports the
// per-layer ledger of the traced round.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/offline.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol.h"

namespace {

using e2e::RoundResult;
using e2e::WorkloadSpec;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage("missing flag value");
    const char* value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || args.seconds < 0) {
        usage("--seconds must be a non-negative number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      args.trace = value[0] - '0';
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

double median(const std::vector<double>& v) { return eca::percentile(v, 50); }

// Peak resident set of this process image. VmHWM belongs to the address
// space, which exec replaces; getrusage's ru_maxrss would also count the
// launching process's peak, inherited across exec.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

// The benchmark's reference kernel, compiled with the benchmark and
// untouched by changes to the library: a cache-resident dense kernel (ten
// 160x160 double matrix products, the shape of the IPM normal equations),
// and for a workload whose hot loop streams through the last-level cache
// the geometric mean of that and a streaming one (ten passes of an
// update-and-dot over two 4 MiB arrays, the shape of the Newton assembly).
// Machine speed on a shared host drifts by +-20%, each core switching
// between a fast and a slow state in spells of about a second; timing this
// kernel between the instances of every round lets the gated figures be
// stated in multiples of its time, which cancels most of the drift while
// still moving with any change to the library. Measured on each workload's
// own solver work in ~1 s slices, the matching kernel took the
// interquartile spread of medians over 5-7 slices from 25% to 7% (PDHG,
// dense alone; with the streaming pass 13%) and from 13% to 5% (Newton,
// dense and streaming).
double reference_kernel_s(bool streaming) {
  using Clock = std::chrono::steady_clock;
  static double sink = 0.0;
  constexpr std::size_t n = 160;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (std::size_t k = 0; k < n * n; ++k) {
    a[k] = 1.0 / static_cast<double>(1 + k % 7);
    b[k] = 1.0 / static_cast<double>(1 + k % 5);
  }
  const Clock::time_point dense_start = Clock::now();
  for (int rep = 0; rep < 10; ++rep) {
    std::fill(c.begin(), c.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const double x = a[i * n + k];
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] += x * b[k * n + j];
      }
    }
    sink += c[static_cast<std::size_t>(rep)];
  }
  const double dense_s =
      std::chrono::duration<double>(Clock::now() - dense_start).count();
  if (sink == 0.0) std::fprintf(stderr, "reference kernel produced 0\n");
  if (!streaming) return dense_s;
  constexpr std::size_t m = std::size_t{1} << 19;
  std::vector<double> u(m, 1.0);
  std::vector<double> v(m, 2.0);
  const Clock::time_point stream_start = Clock::now();
  for (int rep = 0; rep < 10; ++rep) {
    double dot = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      u[i] = u[i] * 0.999 + v[i];
      dot += u[i] * v[i];
    }
    sink += dot;
  }
  const double stream_s =
      std::chrono::duration<double>(Clock::now() - stream_start).count();
  if (sink == 0.0) std::fprintf(stderr, "reference kernel produced 0\n");
  return std::sqrt(dense_s * stream_s);
}

// Name -> (value, unit) list serialized as the report's metrics.
class Metrics {
 public:
  void set(std::string name, double value, const char* unit) {
    entries_.push_back({std::move(name), value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    k == 0 ? "" : ", ", entries_[k].name.c_str(),
                    std::isfinite(entries_[k].value) ? entries_[k].value : 0.0,
                    entries_[k].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double max_violation = 0.0;  // online allocations
  std::vector<std::string> misses;
};

// Every round repeats the first round's instances, so its costs must repeat
// bit for bit.
void check_repeat(const RoundResult& first, const RoundResult& round,
                  Totals& totals) {
  for (std::size_t k = 0; k < round.instances.size(); ++k) {
    for (std::size_t a = 0; a < round.instances[k].runs.size(); ++a) {
      const e2e::AlgorithmRun& alg = round.instances[k].runs[a];
      if (alg.cost != first.instances[k].runs[a].cost) {
        totals.misses.push_back(round.instances[k].label + " " + alg.name +
                                ": cost differs from the first round");
      }
    }
  }
}

void tally(const RoundResult& round, Totals& totals) {
  for (const e2e::InstanceRun& run : round.instances) {
    if (run.has_offline) {
      ++totals.attempted;
      if (run.offline_failed) ++totals.failed;
    }
    for (const e2e::AlgorithmRun& alg : run.runs) {
      totals.attempted += alg.decide_s.size();
      totals.failed += alg.failed_decides;
      if (alg.failed_decides > 0) {
        totals.misses.push_back(run.label + " " + alg.name +
                                ": allocation violation above 1e-5");
      }
      totals.max_violation = std::max(totals.max_violation, alg.max_violation);
    }
  }
  totals.misses.insert(totals.misses.end(), round.check_misses.begin(),
                       round.check_misses.end());
}

bool is_baseline(const std::string& name) { return name != "online-approx"; }

// The first round's costs, compared by run.py against the recorded
// references.
std::string references_json(const RoundResult& round) {
  std::string out = "[";
  char buf[128];
  for (std::size_t k = 0; k < round.instances.size(); ++k) {
    const e2e::InstanceRun& run = round.instances[k];
    out += k == 0 ? "{" : ", {";
    out += "\"label\": " + json_string(run.label);
    if (run.has_offline) {
      std::snprintf(buf, sizeof(buf), ", \"offline_objective\": %.17g",
                    run.offline_objective);
      out += buf;
    }
    out += ", \"costs\": {";
    for (std::size_t a = 0; a < run.runs.size(); ++a) {
      std::snprintf(buf, sizeof(buf), "%s%s: %.17g", a == 0 ? "" : ", ",
                    json_string(run.runs[a].name).c_str(), run.runs[a].cost);
      out += buf;
    }
    out += "}}";
  }
  return out + "]";
}

long llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return l2;
#endif
  return 0;
}

// Worker counts each library pool resolves to at this workload's work size
// under the default policies (no explicit request, no environment knob).
std::string provenance_json(const WorkloadSpec& spec, const RoundResult& round) {
  using eca::ThreadPool;
  const std::size_t slot = ThreadPool::resolve_slot_threads(
      0, spec.users, ThreadPool::slot_min_chunk());
  const std::size_t nnz =
      round.instances.empty() ? 0 : round.instances.front().offline_nnz;
  const eca::algo::OfflineOptions offline;
  const std::size_t lp =
      ThreadPool::resolve_lp_threads(0, nnz, offline.lp_min_nnz_per_thread);
  const std::size_t baseline = ThreadPool::resolve_baseline_threads(
      0, spec.slots * round.clouds * spec.users,
      ThreadPool::kDefaultBaselineMinWork);
  bool uses_approx = false;
  bool uses_baselines = false;
  for (const std::string& name : spec.roster) {
    (is_baseline(name) ? uses_baselines : uses_approx) = true;
  }
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\": %u, \"llc_bytes\": %ld, \"build_type\": \"%s\", "
      "\"compiler\": %s, \"users\": %zu, \"slots\": %zu, "
      "\"instances\": %zu, \"pools\": {"
      "\"slot_threads\": %zu, \"slot_engaged\": %s, "
      "\"lp_threads\": %zu, \"lp_engaged\": %s, "
      "\"baseline_threads\": %zu, \"baseline_engaged\": %s}}",
      std::thread::hardware_concurrency(), llc_bytes(), E2E_BUILD_TYPE,
      json_string(__VERSION__).c_str(), spec.users, spec.slots,
      spec.instances, slot,
      uses_approx && slot > 1 ? "true" : "false", lp,
      spec.taxi && lp > 1 ? "true" : "false", baseline,
      uses_baselines && baseline > 1 ? "true" : "false");
  return buf;
}

// Each round's timings are stated in multiples of the mean of the
// reference-kernel times probed between its instances.
void end_to_end_metrics(const WorkloadSpec& spec,
                        const std::vector<RoundResult>& rounds,
                        const std::vector<double>& setup_samples,
                        const Totals& totals, Metrics& m) {
  std::vector<double> reference_s;
  std::vector<double> walls;
  std::vector<double> walls_ref;
  std::vector<double> baseline_s;
  std::vector<double> offline_s;
  std::vector<double> decide_ms;
  std::vector<double> decide_ref;
  std::vector<double> approx_ms;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& round = rounds[r];
    double ref = 0.0;
    for (const double s : round.probe_s) ref += s;
    ref /= static_cast<double>(round.probe_s.size());
    reference_s.insert(reference_s.end(), round.probe_s.begin(),
                       round.probe_s.end());
    walls.push_back(round.wall_s);
    walls_ref.push_back(round.wall_s / ref);
    double base = 0.0;
    double off = 0.0;
    for (std::size_t k = 0; k < round.instances.size(); ++k) {
      const e2e::InstanceRun& run = round.instances[k];
      // The probes before and after this instance.
      const double instance_ref =
          0.5 * (round.probe_s[k] + round.probe_s[k + 1]);
      off += run.build_lp_s + run.solve_s + run.score_s;
      for (const e2e::AlgorithmRun& alg : run.runs) {
        if (is_baseline(alg.name)) base += alg.run_s;
        for (const double s : alg.decide_s) {
          decide_ms.push_back(s * 1e3);
          decide_ref.push_back(s / instance_ref);
          if (!is_baseline(alg.name)) approx_ms.push_back(s * 1e3);
        }
      }
    }
    baseline_s.push_back(base);
    offline_s.push_back(off);
  }
  m.set("setup_s", eca::percentile(setup_samples, 10), "s");
  m.set("wall_s", median(walls), "s");
  m.set("decide_ms_p50", eca::percentile(decide_ms, 50), "ms");
  m.set("decide_ms_p90", eca::percentile(decide_ms, 90), "ms");
  m.set("decide_samples", static_cast<double>(decide_ms.size()), "count");
  m.set("ref_ms", median(reference_s) * 1e3, "ms");
  m.set("wall_ref", median(walls_ref), "ref");
  m.set("decide_ref_p50", eca::percentile(decide_ref, 50), "ref");
  m.set("decide_ref_p90", eca::percentile(decide_ref, 90), "ref");
  // The p90 needs at least 10 samples beyond it.
  if (approx_ms.size() >= 100) {
    m.set("approx_decide_ms_p50", eca::percentile(approx_ms, 50), "ms");
    m.set("approx_decide_ms_p90", eca::percentile(approx_ms, 90), "ms");
    m.set("approx_decide_samples", static_cast<double>(approx_ms.size()),
          "count");
  }
  bool has_baselines = false;
  for (const std::string& name : spec.roster) has_baselines |= is_baseline(name);
  if (has_baselines) m.set("baseline_s", median(baseline_s), "s");
  if (spec.taxi) {
    m.set("offline_s", median(offline_s), "s");
    // Mean competitive ratios over the instance set (every round repeats
    // them bit for bit).
    for (const auto& [metric, algorithm] :
         {std::pair<const char*, const char*>{"ratio_approx", "online-approx"},
          {"ratio_greedy", "online-greedy"}}) {
      double sum = 0.0;
      int n = 0;
      for (const e2e::InstanceRun& run : rounds.front().instances) {
        for (const e2e::AlgorithmRun& alg : run.runs) {
          if (alg.name == algorithm) {
            sum += alg.cost / run.offline_cost;
            ++n;
          }
        }
      }
      if (n > 0) m.set(metric, sum / n, "ratio");
    }
  }
  m.set("max_violation", totals.max_violation, "1");
  m.set("fail_frac",
        static_cast<double>(totals.failed) /
            static_cast<double>(std::max<std::size_t>(1, totals.attempted)),
        "ratio");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("rounds", static_cast<double>(rounds.size()), "count");
}

// Program spans whose self time the ledger reports by name.
const char* const kProgramSpans[] = {
    "sim_run",    "slot_decide",     "p2_solve",      "p2_active",
    "p2_certify", "newton_iter",     "ipm_solve",     "slot_lp_refresh",
    "lp_pdhg_solve", "lp_pdhg_scale"};
const char* const kLayers[] = {"scenario", "offline", "approx", "baselines",
                               "sim",      "bench",   "unattributed"};
const char* const kBaselines[] = {"static-once", "perf-opt", "oper-opt",
                                  "stat-opt", "online-greedy"};

void per_layer_metrics(const WorkloadSpec& spec, const RoundResult& traced,
                       double untraced_wall_s,
                       const eca::obs::MetricsSnapshot& snap,
                       const e2e::Ledger& ledger, std::size_t trace_dropped,
                       Metrics& m) {
  const auto counter = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  // sim.scenario
  m.set("scenario.build_s", traced.setup_s, "s");
  m.set("scenario.instances", static_cast<double>(traced.instances.size()),
        "count");

  // algo.online_approx + solve.regularized_solver + linalg
  double approx_s = 0.0;
  double approx_n = 0.0;
  std::map<std::string, double> baseline_s;
  double run_s = 0.0;
  double blocked_s = 0.0;
  double build_lp_s = 0.0;
  double solve_s = 0.0;
  double score_s = 0.0;
  double rows = 0.0;
  double nnz = 0.0;
  double cap_hits = 0.0;
  double offline_violation = 0.0;
  for (const e2e::InstanceRun& run : traced.instances) {
    build_lp_s += run.build_lp_s;
    solve_s += run.solve_s;
    score_s += run.score_s;
    rows += static_cast<double>(run.offline_rows);
    nnz += static_cast<double>(run.offline_nnz);
    cap_hits += run.offline_cap_hit ? 1.0 : 0.0;
    offline_violation = std::max(offline_violation, run.offline_violation);
    for (const e2e::AlgorithmRun& alg : run.runs) {
      run_s += alg.run_s;
      blocked_s += alg.blocked_s;
      if (is_baseline(alg.name)) {
        baseline_s[alg.name] += alg.run_s;
      } else {
        for (const double s : alg.decide_s) approx_s += s;
        approx_n += static_cast<double>(alg.decide_s.size());
      }
    }
  }
  const double iters = counter("solver.newton_iterations");
  const double solves = counter("solver.solves");
  m.set("approx.decide_s", approx_s, "s");
  m.set("approx.decides", approx_n, "count");
  m.set("solver.newton_iterations", iters, "count");
  m.set("solver.iters_per_decide", approx_n > 0 ? iters / approx_n : 0.0,
        "count");
  m.set("solver.warm_accept_ratio",
        solves > 0 ? (counter("solver.warm_starts") -
                      counter("solver.warm_fallbacks")) /
                         solves
                   : 0.0,
        "ratio");
  m.set("solver.warm_fallbacks", counter("solver.warm_fallbacks"), "count");
  m.set("solver.active_fallbacks", counter("solver.active_fallbacks"),
        "count");
  m.set("solver.factor_s", snap.double_counter("solver.factor_seconds"), "s");
  m.set("solver.solve_s", snap.double_counter("solver.solve_seconds"), "s");
  const double cells = static_cast<double>(traced.clouds * spec.users);
  m.set("solver.ns_per_iter_ij",
        iters > 0 ? approx_s * 1e9 / (iters * cells) : 0.0, "ns");

  // algo.baselines + algo.slot_lp + solve.ipm_lp
  for (const char* name : kBaselines) {
    m.set(std::string("baseline.") + name + "_s", baseline_s[name], "s");
  }
  const double ipm_solves = counter("ipm.solves");
  m.set("baseline.lp_solves", counter("baseline.lp_solves"), "count");
  m.set("baseline.lp_failures", counter("baseline.lp_failures"), "count");
  m.set("ipm.iterations", counter("ipm.iterations"), "count");
  m.set("ipm.iters_per_solve",
        ipm_solves > 0 ? counter("ipm.iterations") / ipm_solves : 0.0,
        "count");
  m.set("ipm.warm_accept_ratio",
        ipm_solves > 0 ? counter("ipm.warm_accepted") / ipm_solves : 0.0,
        "ratio");
  m.set("ipm.warm_retries", counter("ipm.warm_retries"), "count");
  const auto span_self = [&](const char* name) {
    const auto it = ledger.span_self_s.find(name);
    return it == ledger.span_self_s.end() ? 0.0 : it->second;
  };
  m.set("slot_lp.refresh_s", span_self("slot_lp_refresh"), "s");

  // algo.offline + solve.pdhg_lp + solve.lp_problem
  const double pdhg_iters = counter("lp.pdhg_iterations");
  const double kernel_s = snap.double_counter("lp.pdhg_kernel_seconds");
  m.set("offline.build_lp_s", build_lp_s, "s");
  m.set("offline.solve_s", solve_s, "s");
  m.set("offline.rows", rows, "count");
  m.set("offline.nnz", nnz, "count");
  m.set("offline.cap_hits", cap_hits, "count");
  m.set("offline.max_violation", offline_violation, "1");
  m.set("pdhg.iterations", pdhg_iters, "count");
  m.set("pdhg.restarts", counter("lp.pdhg_restarts"), "count");
  m.set("pdhg.kernel_s", kernel_s, "s");
  m.set("pdhg.kkt_s", snap.double_counter("lp.pdhg_kkt_seconds"), "s");
  m.set("pdhg.scale_s", snap.double_counter("lp.pdhg_scale_seconds"), "s");
  // Computed, not counted: two SpMVs (A and A^T) per iteration over the
  // instances' mean nonzero count.
  const double mean_nnz =
      traced.instances.empty() ? 0.0
                               : nnz / static_cast<double>(traced.instances.size());
  m.set("pdhg.nnz_per_s",
        kernel_s > 0 ? 2.0 * mean_nnz * pdhg_iters / kernel_s : 0.0, "1/s");

  // sim.simulator + model.costs
  m.set("sim.score_s", score_s, "s");
  m.set("sim.overhead_s", run_s - blocked_s, "s");

  // obs
  m.set("obs.trace_overhead",
        untraced_wall_s > 0 ? traced.wall_s / untraced_wall_s : 0.0, "ratio");
  m.set("obs.trace_dropped", static_cast<double>(trace_dropped), "count");

  // The ledger: per-layer self time as a share of traced wall time.
  m.set("ledger.wall_s", ledger.wall_s, "s");
  m.set("ledger.coverage", ledger.coverage("bench"), "ratio");
  for (const char* layer : kLayers) {
    const auto it = ledger.layer_self_s.find(layer);
    const double self = it == ledger.layer_self_s.end() ? 0.0 : it->second;
    m.set(std::string("share.") + layer,
          ledger.wall_s > 0 ? self / ledger.wall_s : 0.0, "ratio");
  }
  double worker_s = 0.0;
  for (const auto& [layer, seconds] : ledger.worker_layer_self_s) {
    worker_s += seconds;
  }
  m.set("ledger.worker_s", worker_s, "s");
  for (const char* span : kProgramSpans) {
    m.set(std::string("self.") + span + "_s", span_self(span), "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = e2e::find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload");

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  Metrics metrics;
  Totals totals;
  std::vector<RoundResult> rounds;
  if (args.trace == 0) {
    // Set-up time is small next to a round, so sample it on its own: before
    // the first round and after every round, a burst of back-to-back builds
    // (at least 3 and 0.05 s) on each CPU the process may use in turn. On a
    // shared host each core alternates between a fast state and one ~1.8x
    // slower for this code, in spells of about a second, so a median of
    // samples from whatever core the process sits on lands on either state;
    // the 10th percentile over bursts on every core reads the fast state
    // (README.md, "Metrics").
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
      }
    }
    std::vector<double> setup_samples;
    const auto burst = [&] {
      const Clock::time_point burst_start = Clock::now();
      for (int n = 0; n < 3 || std::chrono::duration<double>(
                                   Clock::now() - burst_start)
                                       .count() < 0.05;
           ++n) {
        const Clock::time_point t0 = Clock::now();
        const auto instances = e2e::build_instances(*spec, args.seed);
        setup_samples.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
      }
    };
    std::size_t next_cpu = 0;
    const auto sample_setup = [&] {
      if (cpus.empty()) return burst();
      // Up to four CPUs a call, continuing the rotation on larger hosts.
      for (std::size_t k = 0; k < std::min<std::size_t>(4, cpus.size()); ++k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[next_cpu++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
        burst();
      }
      sched_setaffinity(0, sizeof(allowed), &allowed);
    };
    sample_setup();
    const auto probe = [&] { return reference_kernel_s(spec->streams_llc); };
    while (rounds.empty() || elapsed() < args.seconds) {
      rounds.push_back(e2e::run_round(*spec, args.seed, probe));
      tally(rounds.back(), totals);
      check_repeat(rounds.front(), rounds.back(), totals);
      sample_setup();
    }
    end_to_end_metrics(*spec, rounds, setup_samples, totals, metrics);
  } else {
    // Round 0 twice untraced: the first warms the process up (its rounds
    // run measurably slower), the second is the trace-overhead reference.
    for (int k = 0; k < 2; ++k) {
      rounds.push_back(e2e::run_round(*spec, args.seed));
      tally(rounds.back(), totals);
      check_repeat(rounds.front(), rounds.back(), totals);
    }
    eca::obs::TraceOptions options;
    options.capacity = std::size_t{1} << 18;
    eca::obs::TraceSession* const session =
        eca::obs::install_global_trace(options);
    eca::obs::MetricsRegistry::global().reset_values();
    const RoundResult traced = e2e::run_round(*spec, args.seed);
    const eca::obs::MetricsSnapshot snap =
        eca::obs::MetricsRegistry::global().snapshot();
    std::stringstream trace_text;
    session->flush_to(trace_text);
    const std::size_t dropped = session->dropped();
    eca::obs::drop_global_trace();
    tally(traced, totals);
    check_repeat(rounds.front(), traced, totals);
    const e2e::Ledger ledger = e2e::fold_spans(
        e2e::parse_trace(trace_text), "bench.round", e2e::layer_of_span);
    per_layer_metrics(*spec, traced, rounds.back().wall_s, snap, ledger,
                      dropped, metrics);
    rounds.push_back(traced);
  }

  std::string misses = "[";
  for (std::size_t k = 0; k < totals.misses.size(); ++k) {
    misses += (k == 0 ? "" : ", ") + json_string(totals.misses[k]);
  }
  misses += "]";
  std::string round_walls = "[";
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", k == 0 ? "" : ", ",
                  rounds[k].wall_s);
    round_walls += buf;
  }
  round_walls += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"attempted\": %zu, "
      "\"failed\": %zu, \"check_misses\": %s, \"metrics\": %s, "
      "\"round_wall_s\": %s, \"references\": %s, \"provenance\": %s}\n",
      json_string(spec->name).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace,
      totals.attempted, totals.failed, misses.c_str(), metrics.json().c_str(),
      round_walls.c_str(), references_json(rounds.front()).c_str(),
      provenance_json(*spec, rounds.front()).c_str());
  return 0;
}
