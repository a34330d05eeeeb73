#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>

namespace e2e {

std::vector<Span> parse_trace(std::istream& in) {
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    char name[128] = {0};
    unsigned tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"ph\":\"X\",\"pid\":%*u,"
                    "\"tid\":%u,\"ts\":%lf,\"dur\":%lf",
                    name, &tid, &ts_us, &dur_us) != 4) {
      continue;  // the array brackets
    }
    spans.push_back({name, static_cast<std::uint64_t>(std::llround(ts_us * 1e3)),
                     static_cast<std::uint64_t>(std::llround(dur_us * 1e3)),
                     tid});
  }
  return spans;
}

double Ledger::coverage(const std::string& root_layer) const {
  if (wall_s <= 0.0) return 0.0;
  double covered = 0.0;
  for (const auto& [layer, seconds] : layer_self_s) {
    if (layer != root_layer) covered += seconds;
  }
  return covered / wall_s;
}

Ledger fold_spans(std::vector<Span> spans, const std::string& root_name,
                  const LayerOf& layer_of) {
  Ledger ledger;
  // Parents sort before their children: earlier start first, and on equal
  // starts the longer (enclosing) span first.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.name == root_name && (root == nullptr || s.start_ns < root->start_ns)) {
      root = &s;
    }
  }
  if (root == nullptr) return ledger;
  ledger.wall_s = static_cast<double>(root->dur_ns) * 1e-9;
  const std::uint64_t root_end = root->start_ns + root->dur_ns;

  struct Open {
    std::uint64_t end_ns;
    std::uint64_t covered_ns;
    std::string layer;
    const Span* span;
  };
  std::vector<Open> stack;
  const auto close = [&](const Open& open) {
    const std::uint64_t dur = open.span->dur_ns;
    const double self =
        static_cast<double>(dur - std::min(dur, open.covered_ns)) * 1e-9;
    ledger.span_self_s[open.span->name] += self;
    // Spans on the root thread outside the root interval are not charged.
    if (open.span->tid != root->tid) {
      ledger.worker_layer_self_s[open.layer] += self;
    } else if (open.span->start_ns >= root->start_ns &&
               open.span->start_ns + open.span->dur_ns <= root_end) {
      ledger.layer_self_s[open.layer] += self;
    }
  };
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    if (k > 0 && s.tid != spans[k - 1].tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
    }
    while (!stack.empty() && s.start_ns >= stack.back().end_ns) {
      close(stack.back());
      stack.pop_back();
    }
    const std::uint64_t end = s.start_ns + s.dur_ns;
    std::string layer = layer_of(s.name);
    if (!stack.empty()) {
      Open& parent = stack.back();
      parent.covered_ns += std::min(end, parent.end_ns) - s.start_ns;
      if (layer.empty()) layer = parent.layer;
    }
    if (layer.empty()) layer = "unattributed";
    stack.push_back({end, 0, std::move(layer), &s});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return ledger;
}

}  // namespace e2e
