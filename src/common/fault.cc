#include "common/fault.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "common/log.h"

namespace eca {
namespace {

constexpr int kNumSites = static_cast<int>(FaultSite::kCount);

constexpr const char* kSiteNames[kNumSites] = {
    "schur_singular", "newton_nan", "iter_cap",
    "ipm_fail",       "pdhg_fail",  "lp_fail",
};

struct SiteState {
  // 1-based hit index at which the site fires; 0 = never.
  std::uint64_t scheduled = 0;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
};

SiteState g_sites[kNumSites];
std::atomic<bool> g_plan_active{false};
std::once_flag g_env_once;

[[noreturn]] void die(const char* plan, const std::string& why) {
  std::fprintf(stderr,
               "error: invalid ECA_FAULT plan '%s': %s (grammar: "
               "site[@occurrence][,site[@occurrence]...], sites: "
               "schur_singular newton_nan iter_cap ipm_fail pdhg_fail "
               "lp_fail; unset it to disable)\n",
               plan, why.c_str());
  std::exit(2);
}

int site_index(const std::string& name) {
  for (int s = 0; s < kNumSites; ++s) {
    if (name == kSiteNames[s]) return s;
  }
  return -1;
}

// Parses `plan` into g_sites. Empty/NULL clears. Fatal on malformed input.
void parse_plan(const char* plan) {
  for (SiteState& s : g_sites) {
    s.scheduled = 0;
    s.hits.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
  }
  if (plan == nullptr || plan[0] == '\0') {
    g_plan_active.store(false, std::memory_order_relaxed);
    detail::g_fault_maybe.store(false, std::memory_order_relaxed);
    return;
  }
  const std::string text(plan);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string term =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (term.empty()) die(plan, "empty term");
    const std::size_t at = term.find('@');
    const std::string name = term.substr(0, at);
    const int site = site_index(name);
    if (site < 0) die(plan, "unknown fault site '" + name + "'");
    std::uint64_t occurrence = 1;
    if (at != std::string::npos) {
      const std::string num = term.substr(at + 1);
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(num.c_str(), &end, 10);
      if (errno != 0 || end == num.c_str() || *end != '\0' || parsed < 1) {
        die(plan, "occurrence '" + num + "' must be a positive integer");
      }
      occurrence = static_cast<std::uint64_t>(parsed);
    }
    if (g_sites[site].scheduled != 0) {
      die(plan, "site '" + name + "' scheduled twice");
    }
    g_sites[site].scheduled = occurrence;
  }
  g_plan_active.store(true, std::memory_order_relaxed);
  detail::g_fault_maybe.store(true, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

std::atomic<bool> g_fault_maybe{true};

bool fault_fire_slow(FaultSite site) {
  std::call_once(g_env_once, init_faults_from_env);
  if (!g_plan_active.load(std::memory_order_relaxed)) return false;
  SiteState& s = g_sites[static_cast<int>(site)];
  if (s.scheduled == 0) return false;
  const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit != s.scheduled) return false;
  s.fired.fetch_add(1, std::memory_order_relaxed);
  ECA_LOG_WARN("fault: firing %s at hit %llu",
               kSiteNames[static_cast<int>(site)],
               static_cast<unsigned long long>(hit));
  return true;
}

}  // namespace detail

void init_faults_from_env() { parse_plan(std::getenv("ECA_FAULT")); }

void install_fault_plan(const char* plan) {
  std::call_once(g_env_once, [] {});  // suppress env init from now on
  parse_plan(plan);
}

std::uint64_t fault_fired_count(FaultSite site) {
  return g_sites[static_cast<int>(site)].fired.load(
      std::memory_order_relaxed);
}

const char* fault_site_name(FaultSite site) {
  const int s = static_cast<int>(site);
  return (s >= 0 && s < kNumSites) ? kSiteNames[s] : "?";
}

}  // namespace eca
