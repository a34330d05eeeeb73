// Per-layer time ledger: folds the complete ("ph":"X") spans of a trace
// session into self times. A span's self time is its duration minus the
// part of it covered by its direct children on the same thread; its layer
// is the one named by its nearest enclosing benchmark span, so the
// program's own spans (p2_solve, ipm_solve, lp_pdhg_solve, ...) are charged
// to the layer call they ran under.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

// Parses the output of obs::TraceSession::flush_to.
std::vector<Span> parse_trace(std::istream& in);

// Maps a span name to the layer it opens, or "" for a span that inherits
// its enclosing span's layer.
using LayerOf = std::function<std::string(const std::string& span_name)>;

struct Ledger {
  // Duration of the (first) root span — the traced wall clock.
  double wall_s = 0.0;
  // Self seconds per layer, over spans on the root span's thread. The
  // root's own self time is charged to its layer like any other span.
  std::map<std::string, double> layer_self_s;
  // Self seconds per layer of spans on every other thread (pool workers);
  // these overlap the root's wall clock instead of adding to it.
  std::map<std::string, double> worker_layer_self_s;
  // Self seconds per span name, over all threads.
  std::map<std::string, double> span_self_s;

  // Share of the root's wall clock covered by self time charged to layers
  // other than `root_layer` (1.0 = every nanosecond attributed).
  [[nodiscard]] double coverage(const std::string& root_layer) const;
};

// Folds `spans`. The root is the first span named `root_name`; spans with
// no enclosing layer-opening span land in layer "unattributed".
Ledger fold_spans(std::vector<Span> spans, const std::string& root_name,
                  const LayerOf& layer_of);

}  // namespace e2e
