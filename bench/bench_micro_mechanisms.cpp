// Micro-benchmarks (google-benchmark) for the DP primitive layer: noise
// sampler throughput, Exponential-Mechanism selection cost (which bound the
// per-release overhead of Phase 2 and the per-cut overhead of Phase 1), the
// per-charge cost + admission capacity of the accounting policies, the
// WAL append path (frame + CRC + storage, memory-backed — the serving
// layer's per-release durability overhead minus the physical fsync), and
// the GDPNET02 reply codec (encode and decode of a granted Serve reply, in
// bytes/s — the serving layer's per-reply codec cost).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/group_dp_engine.hpp"
#include "dp/accountant.hpp"
#include "dp/distributions.hpp"
#include "dp/exponential.hpp"
#include "dp/gaussian.hpp"
#include "dp/laplace.hpp"
#include "dp/privacy_accountant.hpp"
#include "net/wire.hpp"
#include "serve/audit_wal.hpp"

namespace {

using namespace gdp;

void BM_SampleLaplace(benchmark::State& state) {
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::SampleLaplace(rng, 3.0));
  }
}
BENCHMARK(BM_SampleLaplace);

void BM_SampleGaussian(benchmark::State& state) {
  common::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::SampleGaussian(rng, 3.0));
  }
}
BENCHMARK(BM_SampleGaussian);

void BM_SampleTwoSidedGeometric(benchmark::State& state) {
  common::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::SampleTwoSidedGeometric(rng, 3.0));
  }
}
BENCHMARK(BM_SampleTwoSidedGeometric);

void BM_SampleDiscreteGaussian(benchmark::State& state) {
  common::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::SampleDiscreteGaussian(rng, 50.0));
  }
}
BENCHMARK(BM_SampleDiscreteGaussian);

void BM_AnalyticGaussianCalibration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::AnalyticGaussianSigma(
        dp::Epsilon(0.7), dp::Delta(1e-6), dp::L2Sensitivity(1000.0)));
  }
}
BENCHMARK(BM_AnalyticGaussianCalibration);

void BM_ExponentialMechanismSelect(benchmark::State& state) {
  const dp::ExponentialMechanism em(dp::Epsilon(0.1), dp::L1Sensitivity(1.0));
  common::Rng rng(5);
  std::vector<double> utilities(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < utilities.size(); ++i) {
    utilities[i] = -static_cast<double>(i % 17);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(em.Select(utilities, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExponentialMechanismSelect)->Arg(16)->Arg(63)->Arg(1024);

void BM_GaussianMechanismVector(benchmark::State& state) {
  const dp::GaussianMechanism m(dp::Epsilon(0.999), dp::Delta(1e-5),
                                dp::L2Sensitivity(100.0));
  common::Rng rng(6);
  const std::vector<double> truth(static_cast<std::size_t>(state.range(0)), 42.0);
  for (auto _ : state) {
    std::vector<double> noisy = truth;
    m.AddNoise(std::span<double>(noisy), rng);
    benchmark::DoNotOptimize(noisy.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianMechanismVector)->Arg(64)->Arg(4096)->Arg(65536);

// Releases-until-exhaustion per accounting policy: one ledger with a fixed
// grant (ε=8, δ=1e-2), charged the Gaussian level-release event the session
// layer emits (εg₂=0.9, δ=1e-5, 9 levels) until admission denies.  Measures
// the full check-and-commit path; the "releases" counter records how many
// releases each policy extracts from the same grant (the RDP win the serve
// layer pins).  Arg 0/1/2 = sequential/advanced/rdp.
void BM_AccountingPolicies(benchmark::State& state) {
  const auto policy = static_cast<dp::AccountingPolicy>(state.range(0));
  const dp::MechanismEvent event =
      core::MechanismEventFor(core::NoiseKind::kGaussian, 0.9, 1e-5, 9);
  int releases = 0;
  for (auto _ : state) {
    dp::BudgetLedger ledger(8.0, 1e-2, policy);
    releases = 0;
    while (ledger.TryCharge(event, "release")) {
      ++releases;
    }
    benchmark::DoNotOptimize(ledger.epsilon_spent());
  }
  state.counters["releases"] = releases;
  state.SetItemsProcessed(state.iterations() * (releases + 1));
}
BENCHMARK(BM_AccountingPolicies)->Arg(0)->Arg(1)->Arg(2);

// One durable charge append: encode + CRC frame + append + sync against
// MemoryStorage.  This is everything the WAL adds per admitted release
// except the physical fsync, i.e. the CPU floor of the write-ahead path.
// The storage is re-adopted each iteration batch to keep the log from
// growing unboundedly across the measurement.
void BM_WalAppend(benchmark::State& state) {
  const dp::MechanismEvent event =
      core::MechanismEventFor(core::NoiseKind::kGaussian, 0.9, 1e-5, 9);
  serve::AuditWal wal(std::make_unique<serve::MemoryStorage>(), {},
                      [](std::chrono::milliseconds) {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(serve::WalRecord::Charge(
        "tenant", "dataset", event, 1.35, 2e-5, "release: phase2 noise")));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["log_bytes"] =
      static_cast<double>(wal.storage().size()) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_WalAppend);

// A granted Serve reply of `groups` groups: both f64 columns (true and
// noisy counts) hold one entry per group.
net::wire::ServeOutcome ServeReply(std::size_t groups) {
  common::Rng rng(7);
  net::wire::ServeOutcome outcome;
  outcome.granted = true;
  outcome.privilege = 5;
  outcome.level = 1;
  outcome.epsilon_spent = 12.5;
  outcome.epsilon_remaining = 37.5;
  outcome.view.level = 1;
  outcome.view.noise_stddev = 310.0;
  outcome.view.group_noise_stddev = 220.0;
  for (std::size_t g = 0; g < groups; ++g) {
    const double truth = static_cast<double>(g % 97 + 1);
    outcome.view.true_group_counts.push_back(truth);
    outcome.view.noisy_group_counts.push_back(truth +
                                              dp::SampleGaussian(rng, 220.0));
  }
  return outcome;
}

// The reply codec at 8 groups (a coarse tier), 1,536 (about the `fine`
// workload's level 1) and 5,365 (a 10k-edge graph's level 0).  Encode times
// wire::Encode(outcome) only; decode times wire::DecodeServeResponse(payload)
// only.  Both report payload bytes/s.
void BM_EncodeServeReply(benchmark::State& state) {
  const net::wire::ServeOutcome outcome =
      ServeReply(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string payload = net::wire::Encode(outcome);
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EncodeServeReply)->Arg(8)->Arg(1536)->Arg(5365);

void BM_DecodeServeReply(benchmark::State& state) {
  const std::string payload = net::wire::Encode(
      ServeReply(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    const net::wire::ServeOutcome outcome =
        net::wire::DecodeServeResponse(payload);
    benchmark::DoNotOptimize(outcome.view.noisy_group_counts.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DecodeServeReply)->Arg(8)->Arg(1536)->Arg(5365);

}  // namespace

BENCHMARK_MAIN();
