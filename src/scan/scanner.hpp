// Bulk scanner (the zdns stand-in): issues one A query per registered
// domain through a recursive resolver, collects RCODE + EDE codes, and
// aggregates everything the paper's §4 reports — per-code domain counts,
// per-TLD concentration (Figure 1) and the Tranco-rank spread (Figure 2).
//
// A scan can cover the whole population or a contiguous [begin, end)
// shard of it; ScanResult::merge recombines shard results so an N-shard
// scan (see scan/parallel.hpp) aggregates identically to a sequential one.
#pragma once

#include <chrono>
#include <map>

#include "obs/counters.hpp"
#include "resolver/cache.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/resolver.hpp"
#include "simnet/network.hpp"
#include "scan/world.hpp"

namespace ede::scan {

struct CodeStats {
  std::size_t domains = 0;
  std::vector<std::string> sample_extra_text;  // up to a handful
};

struct TldOutcome {
  std::size_t scanned = 0;
  std::size_t with_ede = 0;
};

struct RankedDomain {
  std::uint32_t rank = 0;
  bool noerror = false;
};

/// The scan's counters. The embedded sets are deltas over the resolver
/// stack's own counters, taken once per Scanner::run call, so scans that
/// share a Network or resolver do not double-count.
#define EDE_SCAN_COUNTERS(C, N)                                            \
  C(total_domains)                                                         \
  C(domains_with_ede)                                                      \
  C(noerror_with_ede)                                                      \
  C(servfail_domains)                                                      \
  /** Domains triggering EDE 22 and/or 23. */                              \
  C(lame_union)                                                            \
  C(upstream_queries)                                                      \
  /** What the adversarial transport saw during the scan. */               \
  N(sim::Network::Stats, network)                                          \
  /** Hold-downs and the RFC 6891 plain-DNS verdicts learned. */           \
  N(resolver::InfraCache::Stats, infra)                                    \
  N(resolver::Cache::Stats, record_cache)                                  \
  /** What the Byzantine-hardening pipeline did. On the fault-free scan    \
      world the Mangle pool's rewritten questions keep                     \
      rejected_question_mismatch hot while the spoof-shaped rejections     \
      (bad QID, oversize) stay zero; coalescing and SERVFAIL-cache         \
      counters are per-domain deterministic and therefore                  \
      shard-count-invariant. */                                            \
  N(resolver::HardeningStats, hardening)

struct ScanResult {
  EDE_COUNTERS(ScanResult, "scan", EDE_SCAN_COUNTERS)
  std::map<std::uint16_t, CodeStats> per_code;
  std::vector<TldOutcome> per_tld;        // parallel to population.tlds
  std::vector<RankedDomain> tranco_hits;  // EDE-triggering ranked domains
  std::map<Category, std::map<std::uint16_t, std::size_t>>
      codes_by_category;  // diagnostic cross-tab
  /// Host elapsed time — nondeterministic, for bench reporting only.
  double wall_seconds = 0.0;
  /// Simulated-clock elapsed time — deterministic under the sim network
  /// (zero with the latency model off); what reproducibility tests use.
  /// It is the batch makespan, which equals the serial sum only at width 1.
  double sim_seconds = 0.0;
  /// High-water mark of concurrently in-flight resolutions (1 for a
  /// width-1 scan). A load observation like wall_seconds — merge
  /// takes the max, and it is excluded from shard/inflight-equivalence
  /// comparisons.
  std::size_t max_in_flight = 0;
  /// Cap on sample_extra_text per code, carried so merge can re-apply it.
  std::size_t sample_cap = 3;

  /// Fold `other` into this result. Associative, and for contiguous
  /// shards merged in population order the aggregate is identical to a
  /// single sequential scan (ordered fields — extra-text samples and
  /// tranco_hits — concatenate in shard order, which *is* scan order).
  /// wall/sim times accumulate; real end-to-end elapsed time of a
  /// parallel run lives in ParallelScanResult::wall_seconds.
  void merge(const ScanResult& other);

  [[nodiscard]] double queries_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(total_domains) / wall_seconds
                            : 0.0;
  }
};

class Scanner {
 public:
  struct Options {
    std::size_t max_extra_text_samples = 3;
    /// Scan only every Nth domain (quick smoke runs); 1 = everything.
    /// Clamped to >= 1 (a zero stride used to loop forever).
    std::size_t stride = 1;
    /// Resolutions multiplexed over the resolver's event scheduler: the
    /// whole scan is one RecursiveResolver::resolve_many batch at this
    /// width (0 counts as 1). Every resolution's timeline is rebased to
    /// the batch epoch, so aggregates are invariant in the width at a
    /// fixed seed (outcomes fold in population order either way); only
    /// sim_seconds (makespan vs serial sum) and max_in_flight change.
    std::size_t inflight = 1;
  };

  explicit Scanner(Options options) : options_(options) {
    if (options_.stride == 0) options_.stride = 1;
  }
  Scanner() : Scanner(Options{}) {}

  [[nodiscard]] ScanResult run(resolver::RecursiveResolver& resolver,
                               const Population& population) const {
    return run(resolver, population, 0, population.domains.size());
  }

  /// Scan the contiguous shard [begin, end) of the population. The stride
  /// grid is anchored at index 0 globally, so sharded strided scans visit
  /// exactly the indices a sequential strided scan would.
  [[nodiscard]] ScanResult run(resolver::RecursiveResolver& resolver,
                               const Population& population,
                               std::size_t begin, std::size_t end) const;

 private:
  Options options_;
};

/// A CDF over values in [0,1] (or ranks), as (x, fraction<=x) points.
[[nodiscard]] std::vector<std::pair<double, double>> make_cdf(
    std::vector<double> values);

}  // namespace ede::scan
