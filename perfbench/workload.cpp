#include "workload.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include <unistd.h>

#include "resolver/profile.hpp"
#include "scan/category.hpp"
#include "scan/scanner.hpp"
#include "serve/report.hpp"

namespace perfbench {
namespace {

using namespace ede;

/// serve_qps's serving-world settings: child TTL short enough that records
/// expire several times within the trace, DoTCP listeners on every
/// authority, the latency model on.
constexpr std::uint32_t kServeTtl = 300;
constexpr std::uint32_t kServeClients = 1'000'000;
constexpr sim::SimTimeMs kServeDurationMs = 1'200'000;
constexpr std::size_t kServeInflight = 256;
constexpr sim::SimTimeMs kServeWaveMs = 1'000;

/// Failures quoted by name in the report; the rest are only counted.
constexpr std::size_t kQuotedFailures = 5;

void note_failure(PassResult& result, std::string what) {
  ++result.failed;
  if (result.failures.size() < kQuotedFailures)
    result.failures.push_back(std::move(what));
}

struct ScanTally {
  std::uint64_t domains = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t with_ede = 0;
  std::uint64_t servfail = 0;
  std::map<scan::Category, std::map<std::uint16_t, std::size_t>> codes;
};

/// Partially-lame domains whose provider slot is even list the healthy
/// nameserver first, so first-success probing never meets the dead one and
/// no EDE 23 is due: the world's deliberate model of the paper's undercount
/// (scan/world.cpp; pinned by ScanPartialFail in tests/test_scan.cpp).
std::size_t hidden_partial_fails(const scan::Population& population) {
  return static_cast<std::size_t>(std::count_if(
      population.domains.begin(), population.domains.end(),
      [](const scan::DomainSpec& d) {
        return d.category == scan::Category::PartialFail && d.provider % 2 == 0;
      }));
}

/// §4.2 check: every domain carries its category's headline EDE code, and
/// no Healthy domain carries any EDE. Counted from codes_by_category
/// against Population::count.
void check_scan(const scan::Population& population, const ScanTally& tally,
                PassResult& result) {
  for (const auto& info : scan::category_table()) {
    std::size_t expected = population.count(info.category);
    if (info.category == scan::Category::PartialFail)
      expected -= hidden_partial_fails(population);
    const auto it = tally.codes.find(info.category);
    std::size_t bad = 0;
    if (info.headline_code < 0) {
      std::size_t carried = 0;
      if (it != tally.codes.end())
        for (const auto& [code, count] : it->second) carried += count;
      bad = std::min(expected, carried);
    } else {
      std::size_t hit = 0;
      if (it != tally.codes.end()) {
        const auto code = it->second.find(
            static_cast<std::uint16_t>(info.headline_code));
        if (code != it->second.end()) hit = code->second;
      }
      bad = expected - std::min(expected, hit);
    }
    for (std::size_t i = 0; i < bad; ++i) {
      note_failure(result,
                   std::string(info.name) +
                       (info.headline_code < 0
                            ? ": domain carries an EDE code"
                            : ": domain lacks EDE " +
                                  std::to_string(info.headline_code)));
    }
  }
}

/// Serving check: every primary query is answered; a query for a Healthy
/// domain gets NOERROR and a typo under one gets NXDOMAIN.
void check_serve(const Stack& stack,
                 const std::vector<serve::ClientAnswer>& answers,
                 PassResult& result, std::set<const scan::DomainSpec*>& seen) {
  const auto& queries = stack.trace.queries;
  if (answers.size() < queries.size()) {
    for (std::size_t i = answers.size(); i < queries.size(); ++i)
      note_failure(result, "query " + std::to_string(i) + " unanswered");
  }
  for (std::size_t i = 0; i < std::min(answers.size(), queries.size()); ++i) {
    const auto& query = queries[i];
    const auto& answer = answers[i];
    if (answer.suppressed) {
      if (query.retry_of == serve::kNoRetry)
        note_failure(result, "primary query " + query.qname.to_string() +
                                 " suppressed (unanswered)");
      continue;
    }
    const auto* domain = domain_of(*stack.world, query.qname);
    if (domain == nullptr) {
      note_failure(result, "query " + query.qname.to_string() +
                               " names no registered domain");
      continue;
    }
    seen.insert(domain);
    if (domain->category != scan::Category::Healthy) continue;
    const auto expected =
        query.typo ? dns::RCode::NXDOMAIN : dns::RCode::NOERROR;
    if (answer.rcode != expected) {
      note_failure(result, query.qname.to_string() + ": rcode " +
                               std::to_string(static_cast<int>(answer.rcode)) +
                               ", expected " +
                               std::to_string(static_cast<int>(expected)));
    }
  }
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"scan", Kind::Scan, 12'000, 1'000, 0, 0.0},
      {"serve-hot", Kind::Serve, 4'000, 0, 40'000, 0.10},
      {"serve-churn", Kind::Serve, 20'000, 0, 40'000, 0.30},
  };
  return specs;
}

const scan::DomainSpec* domain_of(const scan::ScanWorld& world,
                                  dns::Name name) {
  while (!name.is_root()) {
    if (const auto* spec = world.lookup(name)) return spec;
    name = name.parent();
  }
  return nullptr;
}

resolver::ResolverProfile profile_for(const WorkloadSpec& spec) {
  return spec.kind == Kind::Scan ? resolver::profile_cloudflare()
                                 : resolver::profile_reference();
}

serve::StubOptions stub_options(const WorkloadSpec& spec,
                                std::uint64_t seed) {
  serve::StubOptions stub;
  stub.clients = kServeClients;
  stub.queries = spec.kind == Kind::Serve
                     ? spec.queries
                     : static_cast<std::uint32_t>(spec.domains);
  stub.duration_ms = kServeDurationMs;
  stub.nxdomain_fraction = spec.nx_fraction;
  stub.seed = seed;
  return stub;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& spec : workloads())
    if (spec.name == name) return &spec;
  return nullptr;
}

double current_rss_mb() {
  long pages_total = 0;
  long pages_resident = 0;
  std::ifstream statm("/proc/self/statm");
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::unique_ptr<Stack> build_stack(const WorkloadSpec& spec,
                                   std::uint64_t seed, SpanLog* spans,
                                   SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  SetupTimes local;
  SetupTimes& t = times != nullptr ? *times : local;
  const bool serving = spec.kind == Kind::Serve;

  t.population_s = timed(spans, "scan.generate_population", 0, [&] {
    scan::PopulationConfig config;
    config.total_domains = spec.domains;
    config.seed = seed;
    stack->population = scan::generate_population(config);
  });
  t.world_s = timed(spans, "scan.ScanWorld", 0, [&] {
    stack->clock = std::make_shared<sim::Clock>();
    stack->network = std::make_shared<sim::Network>(stack->clock, seed);
    scan::WorldOptions world_options;
    if (serving) {
      sim::LatencyModel latency;
      latency.enabled = true;
      latency.seed = seed;
      stack->network->set_latency(latency);
      world_options.child_zone_ttl = kServeTtl;
      world_options.stream_listeners = true;
    }
    stack->world = std::make_unique<scan::ScanWorld>(
        stack->network, stack->population, world_options);
  });
  t.resolver_s = timed(spans, "scan.ScanWorld::make_resolver", 0, [&] {
    resolver::ResolverOptions options;
    if (serving) {
      options.serve_stale = true;
      options.aggressive_nsec_caching = true;
    }
    stack->resolver = std::make_unique<resolver::RecursiveResolver>(
        stack->world->make_resolver(profile_for(spec), options));
    if (serving) {
      serve::FrontEndOptions frontend_options;
      frontend_options.inflight = kServeInflight;
      frontend_options.wave_ms = kServeWaveMs;
      frontend_options.prefetch = true;
      stack->frontend = std::make_unique<serve::FrontEnd>(
          *stack->resolver, *stack->network, frontend_options);
    }
  });
  if (serving) {
    t.trace_s = timed(spans, "serve.generate_stub_trace", 0, [&] {
      stack->trace = serve::generate_stub_trace(stack->population,
                                                stub_options(spec, seed));
    });
  }
  return stack;
}

namespace {

/// The set-up a pass times: build_stack, then ScanWorld::prewarm.
std::unique_ptr<Stack> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                              SpanLog* spans, SetupTimes& times) {
  auto stack = build_stack(spec, seed, spans, &times);
  times.prewarm_s = timed(spans, "scan.ScanWorld::prewarm", 0, [&] {
    stack->world->prewarm(*stack->resolver);
  });
  return stack;
}

}  // namespace

double time_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  SetupTimes times;
  std::unique_ptr<Stack> stack;
  return timed(nullptr, "setup", 0,
               [&] { stack = set_up(spec, seed, nullptr, times); });
}

PassResult run_pass(const WorkloadSpec& spec, std::uint64_t seed,
                    const PassOptions& options) {
  SpanLog* spans = options.spans;
  PassResult result;
  result.rss_start_mb = current_rss_mb();

  std::unique_ptr<Stack> stack;
  result.setup_s = timed(spans, "setup", 0, [&] {
    stack = set_up(spec, seed, spans, result.setup);
  });
  result.rss_setup_mb = current_rss_mb();
  if (options.before_work) options.before_work(*stack);

  auto& resolver = *stack->resolver;
  const auto net_before = stack->network->stats();
  const auto cache_before = resolver.cache().stats();
  const auto infra_before = resolver.infra().stats();
  const auto hardening_before = resolver.hardening_stats();

  // The timed operation.
  std::vector<scan::ScanResult> slices;
  std::vector<serve::ClientAnswer> answers;
  if (spec.kind == Kind::Scan) {
    const scan::Scanner scanner;
    const std::size_t total = stack->population.domains.size();
    slices.reserve((total + spec.slice - 1) / spec.slice);
    result.work_s = timed(spans, "work", 0, [&] {
      for (std::size_t begin = 0; begin < total; begin += spec.slice) {
        const std::size_t end = std::min(total, begin + spec.slice);
        timed(spans, "scan.Scanner::run", begin / spec.slice + 1, [&] {
          slices.push_back(
              scanner.run(resolver, stack->population, begin, end));
        });
      }
    });
  } else {
    result.work_s = timed(spans, "work", 0, [&] {
      timed(spans, "serve.FrontEnd::serve", 1,
            [&] { answers = stack->frontend->serve(stack->trace); });
    });
  }
  result.rss_work_mb = current_rss_mb();

  timed(spans, "check", 0, [&] {
    const auto net = stack->network->stats();
    const auto cache = resolver.cache().stats();
    const auto infra = resolver.infra().stats();
    const auto hardening = resolver.hardening_stats();
    auto& c = result.counters;
    std::uint64_t upstream = 0;

    if (spec.kind == Kind::Scan) {
      ScanTally tally;
      for (const auto& slice : slices) {
        tally.domains += slice.total_domains;
        tally.upstream_queries += slice.upstream_queries;
        tally.with_ede += slice.domains_with_ede;
        tally.servfail += slice.servfail_domains;
        for (const auto& [category, codes] : slice.codes_by_category)
          for (const auto& [code, count] : codes)
            tally.codes[category][code] += count;
      }
      if (options.corrupt_outcome) {
        // One misconfigured domain loses its headline code.
        for (auto& [category, codes] : tally.codes) {
          const int headline = scan::info(category).headline_code;
          if (headline < 0) continue;
          auto it = codes.find(static_cast<std::uint16_t>(headline));
          if (it != codes.end() && it->second > 0) {
            --it->second;
            break;
          }
        }
      }
      if (tally.domains != stack->population.domains.size())
        note_failure(result, "scanned " + std::to_string(tally.domains) +
                                 " of " +
                                 std::to_string(
                                     stack->population.domains.size()) +
                                 " domains");
      check_scan(stack->population, tally, result);
      result.ops = tally.domains;
      result.domains = tally.domains;
      upstream = tally.upstream_queries;
      c.emplace_back("scan.domains", tally.domains);
      c.emplace_back("scan.domains_with_ede", tally.with_ede);
      c.emplace_back("scan.servfail_domains", tally.servfail);
    } else {
      if (options.corrupt_outcome) {
        // One Healthy-domain answer turns into SERVFAIL.
        for (std::size_t i = 0; i < answers.size(); ++i) {
          const auto* domain =
              domain_of(*stack->world, stack->trace.queries[i].qname);
          if (!answers[i].suppressed && domain != nullptr &&
              domain->category == scan::Category::Healthy) {
            answers[i].rcode = dns::RCode::SERVFAIL;
            break;
          }
        }
      }
      std::set<const scan::DomainSpec*> seen;
      check_serve(*stack, answers, result, seen);
      const auto& s = stack->frontend->stats();
      const auto latency = serve::summarize_latency(answers);
      result.ops = stack->trace.queries.size();
      result.domains = seen.size();
      upstream = s.upstream_queries + s.prefetch_upstream_queries;
      c.emplace_back("serve.trace_entries", result.ops);
      c.emplace_back("serve.domains", result.domains);
      c.emplace_back("serve.served", s.served);
      c.emplace_back("serve.suppressed", s.suppressed_retries);
      c.emplace_back("serve.waves", s.waves);
      c.emplace_back("serve.cache_answered", s.cache_answered);
      c.emplace_back("serve.coalesced", s.coalesced);
      c.emplace_back("serve.synthesized", s.synthesized_answers);
      c.emplace_back("serve.stale_answers",
                     s.stale_answers + s.stale_nxdomains);
      c.emplace_back("serve.prefetch_jobs", s.prefetch_jobs);
      c.emplace_back("serve.prefetch_upstream", s.prefetch_upstream_queries);
      c.emplace_back("serve.busy_virtual_ms", s.busy_virtual_ms);
      c.emplace_back("sim.samples", s.served);
      c.emplace_back("sim.p50_ms", latency.p50);
      c.emplace_back("sim.p99_ms", latency.p99);
    }

    c.emplace_back("resolver.upstream_queries", upstream);
    c.emplace_back("net.packets", net.packets_sent - net_before.packets_sent);
    c.emplace_back("net.delivered",
                   net.packets_delivered - net_before.packets_delivered);
    c.emplace_back("net.timeouts",
                   net.packets_timeout - net_before.packets_timeout);
    c.emplace_back("net.unreachable",
                   net.packets_unreachable - net_before.packets_unreachable);
    c.emplace_back("net.retransmits", net.retransmits - net_before.retransmits);
    c.emplace_back("cache.lookups", cache.lookups - cache_before.lookups);
    c.emplace_back("cache.hits", cache.hits - cache_before.hits);
    c.emplace_back("cache.misses", cache.misses - cache_before.misses);
    c.emplace_back("cache.stale_hits",
                   cache.stale_hits - cache_before.stale_hits);
    c.emplace_back("cache.evicted",
                   (cache.evicted_expired - cache_before.evicted_expired) +
                       (cache.evicted_capacity -
                        cache_before.evicted_capacity));
    c.emplace_back("infra.holddown_skips",
                   infra.holddown_skips - infra_before.holddown_skips);
    c.emplace_back("infra.failures", infra.failures - infra_before.failures);
    c.emplace_back("resolver.coalesced", hardening.coalesced_queries -
                                             hardening_before.coalesced_queries);
    c.emplace_back("resolver.servfail_cache_hits",
                   hardening.servfail_cache_hits -
                       hardening_before.servfail_cache_hits);
    c.emplace_back("resolver.tcp_fallbacks",
                   hardening.tcp_fallbacks - hardening_before.tcp_fallbacks);
    c.emplace_back("failed", result.failed);
  });
  return result;
}

std::uint64_t counter(const Counters& counters, std::string_view name) {
  for (const auto& [key, value] : counters)
    if (key == name) return value;
  return 0;
}

}  // namespace perfbench
