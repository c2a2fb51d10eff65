// Multi-tenant serving: the paper's Fig.-1 deployment in ~80 lines.
//
// One published dataset, many users at different privilege tiers, each
// receiving a differently-protected level view.  The DisclosureService
// composes DatasetCatalog (what is published) + SessionRegistry (compile
// once per dataset — the printed scan counter shows FOUR tenants cost ONE
// node scan) + TenantBroker (per-tenant grant + tier).  A tenant that
// exhausts its grant is denied without an exception and without touching
// any other tenant's ledger.
//
// The closing act demonstrates per-tenant accounting policies: two tenants
// with IDENTICAL caps hammer the dataset until exhaustion — the sequential
// one stops at floor(ε_cap / ε_g) releases, while the rdp one composes its
// Gaussian releases on the Rényi curve and is granted several times more
// from the very same grant (see docs/ACCOUNTING.md).
//
// Build & run:  cmake --build build && ./build/multi_tenant_service
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "graph/generators.hpp"
#include "hier/partition.hpp"
#include "serve/service.hpp"

int main() {
  using namespace gdp;
  common::Rng rng(2026);

  graph::DblpLikeParams params;
  params.num_left = 8000;
  params.num_right = 12000;
  params.num_edges = 60000;
  graph::BipartiteGraph graph = GenerateDblpLike(params, rng);
  std::cout << graph.Summary() << "\n\n";

  const std::uint64_t scans_before = hier::Partition::DegreeSumScanCount();

  serve::DisclosureService service(/*registry_capacity=*/4);
  core::SessionSpec publication;  // depth 9, arity 4, eps 0.999
  publication.exec.include_group_counts = false;
  service.catalog().Register(
      "dblp", serve::Dataset{std::move(graph), publication,
                             /*compile_seed=*/2027, /*access_levels=*/{},
                             /*snapshot=*/{}});

  // Four tenants: three tiers of privilege plus one with a tiny grant.
  service.broker().Register("analyst", serve::TenantProfile{5.0, 1e-3, 2});
  service.broker().Register("auditor", serve::TenantProfile{5.0, 1e-3, 6});
  service.broker().Register("admin", serve::TenantProfile{5.0, 1e-3, 9});
  service.broker().Register("guest", serve::TenantProfile{1.0, 1e-3, 0});

  common::TextTable table(
      {"tenant", "tier", "level", "status", "noisy_total", "eps_left"});
  const core::BudgetSpec budget = publication.budget;
  for (const char* tenant : {"analyst", "auditor", "admin", "guest", "guest"}) {
    const serve::ServeResult r = service.Serve(tenant, "dblp", budget, rng);
    table.AddRow({tenant, std::to_string(r.privilege),
                  "L" + std::to_string(r.level),
                  r.granted ? "served" : "denied",
                  r.granted ? common::FormatDouble(r.view.noisy_total, 1) : "-",
                  common::FormatDouble(r.epsilon_remaining, 4)});
  }
  table.Print(std::cout);

  const auto stats = service.registry().stats();
  std::cout << "\nregistry: " << stats.hits << " hits, " << stats.misses
            << " misses, " << stats.evictions << " evictions\n"
            << "node scans for all tenants: "
            << hier::Partition::DegreeSumScanCount() - scans_before
            << " (compile once, serve everyone)\n\n"
            << "guest's audit trail:\n"
            << service.Ledger("guest", "dblp").AuditReport();

  // --- accounting policies: same grant, very different mileage -------------
  serve::TenantProfile seq_profile{4.0, 1e-2, 2};
  serve::TenantProfile rdp_profile{4.0, 1e-2, 2};
  rdp_profile.accounting = dp::AccountingPolicy::kRdp;
  service.broker().Register("seq_tenant", seq_profile);
  service.broker().Register("rdp_tenant", rdp_profile);

  std::cout << "\nreleases until exhaustion at identical caps (eps_cap=4, "
               "delta_cap=1e-2):\n";
  for (const char* tenant : {"seq_tenant", "rdp_tenant"}) {
    int granted = 0;
    while (granted < 1000 && service.Serve(tenant, "dblp", budget, rng).granted) {
      ++granted;
    }
    const dp::BudgetLedger ledger = service.Ledger(tenant, "dblp");
    const dp::BudgetCharge tightened = ledger.AccountedGuarantee(1e-6);
    std::cout << "  " << tenant << " ("
              << dp::AccountingPolicyName(ledger.policy()) << "): " << granted
              << " releases; naive eps spent = "
              << common::FormatDouble(ledger.epsilon_spent(), 3)
              << ", accounted eps at delta=1e-6 = "
              << common::FormatDouble(tightened.epsilon, 3) << '\n';
  }
  return 0;
}
