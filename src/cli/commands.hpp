// gdp_tool command implementations.
//
// Each command is a pure-ish function of (parsed args, output stream) so the
// full pipeline is testable in-process; the binary's main() only dispatches.
//
// Commands:
//   generate  --out g.tsv [--scale 0.01 | --left N --right M --edges E] [--seed S]
//   pack      --graph g.tsv --out d.gdps [--compile] [--verify]
//             [--eps 0.999] [--delta 1e-5] [--depth 9] [--arity 4]
//             [--seed S] [--threads T] [--noise-grain G]
//   disclose  --graph g.tsv | --snapshot d.gdps
//             --release r.tsv [--hierarchy h.tsv]
//             [--eps 0.999] [--delta 1e-5] [--depth 9] [--arity 4]
//             [--seed S] [--consistent] [--strip-truth]
//             [--accounting sequential|advanced|rdp]
//   inspect   --release r.tsv
//   drilldown --release r.tsv --hierarchy h.tsv --side left|right --node V
//             [--max-level L] [--min-level l]
//   serve     --graph g.tsv | --snapshot d.gdps
//             --tenants tenants.tsv
//             (--requests reqs.tsv | --listen PORT [--port-file f]
//              [--workers N] [--queue-depth D] [--max-requests N])
//             [--eps 0.999] [--delta 1e-5] [--depth 9] [--arity 4]
//             [--seed S] [--threads T] [--noise-grain G]
//             [--registry-capacity C] [--out results.tsv]
//             [--accounting [strict-]sequential|advanced|rdp]
//             [--wal audit.wal] [--dataset-eps-cap E] [--dataset-delta-cap D]
//   client    --connect HOST:PORT
//             (--stats | --requests reqs.tsv [--out results.tsv] |
//              --tenant T [--sweep E1,E2,... | --drilldown --side S --node V |
//                          --answer SPECS] [--eps E] [--delta D])
//             [--dataset NAME]
//   audit     --verify audit.wal [--tolerate-tail]
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "dp/privacy_accountant.hpp"
#include "serve/tenant_broker.hpp"

namespace gdp::cli {

// Each returns a process exit code (0 = success) and writes human-readable
// output to `out`.  Errors raise exceptions; main() turns them into exit 1.
int RunGenerate(const Args& args, std::ostream& out);
int RunPack(const Args& args, std::ostream& out);
int RunDisclose(const Args& args, std::ostream& out);
int RunInspect(const Args& args, std::ostream& out);
int RunDrilldown(const Args& args, std::ostream& out);
int RunServe(const Args& args, std::ostream& out);
int RunClient(const Args& args, std::ostream& out);
int RunAudit(const Args& args, std::ostream& out);

// Dispatch a full command line (tokens exclude the program name).
// Unknown/missing command prints usage to `out` and returns 2.
int Dispatch(const std::vector<std::string>& tokens, std::ostream& out);

// The usage text.
[[nodiscard]] std::string UsageText();

// tenants.tsv: `tenant_id epsilon_cap delta_cap privilege [accounting
// [max_in_flight]]` per line (docs/SERVING.md); `default_accounting` is the
// --accounting flag.  A malformed row is skipped with a warning on `out` and
// counted in `skipped`, so one bad tenant cannot stop the others; throws
// gdp::common::IoError when no row is usable.
[[nodiscard]] std::vector<std::pair<std::string, gdp::serve::TenantProfile>>
ReadTenantSpecs(std::istream& in, gdp::dp::AccountingPolicy default_accounting,
                std::ostream& out, std::size_t& skipped);

struct ServeRequest {
  std::string tenant;
  double epsilon_g{0.0};
  double delta{0.0};  // 0 = use the publication default
};

// reqs.tsv: `tenant_id epsilon_g [delta]` per line, epsilon_g in (0, 1e9)
// and delta in (0, 1) (the dp::Epsilon and dp::Delta ranges).
// Throws gdp::common::IoError naming the first malformed row's line (the
// whole file is refused), or when there are no requests.
[[nodiscard]] std::vector<ServeRequest> ReadServeRequests(std::istream& in);

}  // namespace gdp::cli
