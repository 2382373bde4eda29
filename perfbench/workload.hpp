// The benchmark's three workloads, each a single-threaded, single-shard
// pass over the libraries' public APIs: build a fresh stack from the seed
// (set-up), run the timed operation, check the outcomes.
//
//   scan         §4.2 wild scan: Cloudflare profile, latency model off,
//                default Scanner options, Scanner::run over fixed slices.
//   serve-hot    small world, Zipf(1.0) trace with 10 % typos, every
//                domain asked many times; one FrontEnd::serve.
//   serve-churn  the same front end over a 5x larger world and 30 % typos.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "resolver/profile.hpp"
#include "resolver/resolver.hpp"
#include "scan/population.hpp"
#include "scan/world.hpp"
#include "serve/frontend.hpp"
#include "serve/stubs.hpp"
#include "simnet/network.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Kind { Scan, Serve };

struct WorkloadSpec {
  std::string_view name;
  Kind kind = Kind::Scan;
  std::size_t domains = 0;
  /// scan: domains per Scanner::run call (one span each).
  std::size_t slice = 0;
  /// serve: primary stub queries (retransmits come on top) and typo share.
  std::uint32_t queries = 0;
  double nx_fraction = 0.0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// The stub-trace shape: the workload's query count and typo share
/// (for scan, one query per domain and no typos).
[[nodiscard]] ede::serve::StubOptions stub_options(const WorkloadSpec& spec,
                                                   std::uint64_t seed);

/// Cloudflare for the scan (as sec42_wild_scan), the reference profile for
/// serving (as serve_qps).
[[nodiscard]] ede::resolver::ResolverProfile profile_for(
    const WorkloadSpec& spec);

/// Deterministic counters of one pass, in a fixed order. Two passes (or two
/// processes) with the same seed must produce identical lists.
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Everything one set-up + operation pass built. Owned through a
/// unique_ptr: the world keeps a pointer to the population.
struct Stack {
  ede::scan::Population population;
  std::shared_ptr<ede::sim::Clock> clock;
  std::shared_ptr<ede::sim::Network> network;
  std::unique_ptr<ede::scan::ScanWorld> world;
  std::unique_ptr<ede::resolver::RecursiveResolver> resolver;
  std::unique_ptr<ede::serve::FrontEnd> frontend;  // serve workloads
  ede::serve::StubTrace trace;                     // serve workloads
};

/// Seconds each set-up call took.
struct SetupTimes {
  double population_s = 0.0;  // generate_population
  double world_s = 0.0;       // Network + ScanWorld construction
  double resolver_s = 0.0;    // make_resolver (+ FrontEnd for serve)
  double prewarm_s = 0.0;     // ScanWorld::prewarm
  double trace_s = 0.0;       // generate_stub_trace (serve)
};

/// Set-up without prewarm: population, network, world, resolver, and the
/// front end and stub trace for serve. Spans go to `spans` when non-null.
[[nodiscard]] std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 SpanLog* spans,
                                                 SetupTimes* times);

struct PassResult {
  double setup_s = 0.0;
  double work_s = 0.0;
  SetupTimes setup;
  /// Client operations: domains scanned, or stub-trace entries served.
  std::uint64_t ops = 0;
  /// Registered domains those operations resolved.
  std::uint64_t domains = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  Counters counters;
  /// Resident set size (MB) at the start, after set-up, after the work.
  double rss_start_mb = 0.0;
  double rss_setup_mb = 0.0;
  double rss_work_mb = 0.0;
};

/// How a pass may be perturbed. Only the benchmark's own tests use it: a
/// corrupted outcome must make the correctness check fail.
struct PassOptions {
  SpanLog* spans = nullptr;
  /// Called with the stack after set-up, before the timed operation (the
  /// traced pass attaches its packet capture here).
  std::function<void(Stack&)> before_work;
  bool corrupt_outcome = false;
};

/// Wall time of the set-up a pass makes (build_stack, then
/// ScanWorld::prewarm), made once more on its own and torn down.
[[nodiscard]] double time_setup(const WorkloadSpec& spec, std::uint64_t seed);

/// One full pass: set-up, the timed operation, the correctness check.
[[nodiscard]] PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                                  const PassOptions& options);

/// The registered domain a query name falls under (longest suffix the
/// world knows), or null.
[[nodiscard]] const ede::scan::DomainSpec* domain_of(
    const ede::scan::ScanWorld& world, ede::dns::Name name);

/// Value of a named counter (0 when absent).
[[nodiscard]] std::uint64_t counter(const Counters& counters,
                                    std::string_view name);

/// Current resident set size of this process, in MB.
[[nodiscard]] double current_rss_mb();

}  // namespace perfbench
