// Infrastructure cache: the resolver's memory of nameserver *addresses*
// (what Unbound calls the infra-cache and BIND keeps in its ADB). Tracks a
// smoothed RTT per address (EWMA), counts consecutive timeouts, and holds
// known-dead servers down for a calibrated window so repeated lame
// delegations stop burning retransmissions — the paper's wild scan spends
// most of its failure traffic on exactly these servers.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "obs/counters.hpp"
#include "simnet/address.hpp"
#include "simnet/clock.hpp"

namespace ede::resolver {

class InfraCache {
 public:
  struct Options {
    bool enabled = true;
    /// EWMA weight of the newest sample: srtt = (1-a)*srtt + a*rtt
    /// (BIND smooths with ~0.3; Unbound keeps an RTT band per host).
    double srtt_alpha = 0.3;
    /// Consecutive timeouts before an address is held down (Unbound
    /// probes a host a few times before marking it down).
    int holddown_after = 3;
    /// How long a held-down address is skipped without probing
    /// (Unbound's infra-host TTL is 15 minutes).
    std::uint32_t holddown_ms = 900'000;
    /// Ceiling for the failure backoff applied to srtt (Unbound caps its
    /// RTO backoff at 120 s).
    double max_backoff_rtt_ms = 120'000.0;
    /// Assumed RTT of a server that just failed with no history
    /// (Unbound's UNKNOWN_SERVER_NICENESS, 376 ms).
    double unknown_rtt_ms = 376.0;
    /// Coarse eviction cap, like the answer cache's.
    std::size_t max_entries = 65'536;
  };

  /// Why the address most recently failed — decides how a held-down skip
  /// is diagnosed (timeouts keep surfacing as ServerTimeout findings so
  /// EDE classification is identical with and without the cache).
  enum class FailureKind { None, Timeout, Unreachable };

  /// Learned EDNS(0) capability of one server address (RFC 6891 §6.2.2):
  /// what BIND keeps as ADB EDNS flags and Unbound as infra edns_state.
  enum class EdnsCapability { Unknown, Full, PlainOnly };

  struct Entry {
    double srtt_ms = 0.0;
    int consecutive_timeouts = 0;
    sim::SimTimeMs hold_until_ms = 0;
    FailureKind last_failure = FailureKind::None;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
    // --- EDNS capability memory (DESIGN.md §5i). Kept apart from the
    // failure streak above: report_success clears that streak, but a
    // server that answers plain DNS promptly is healthy *and* EDNS-broken
    // at the same time, so the verdict must survive.
    EdnsCapability edns = EdnsCapability::Unknown;
    /// A PlainOnly verdict expires (and the server is re-probed with
    /// EDNS) at this sim-time.
    sim::SimTimeMs edns_retest_ms = 0;
    /// The resolver's batch generation that recorded the verdict.
    std::uint64_t edns_learned_generation = 0;
  };

#define EDE_INFRA_COUNTERS(C, N)                 \
  C(holddowns_started)                           \
  /** Candidate probes avoided. */               \
  C(holddown_skips)                              \
  C(successes)                                   \
  C(failures)                                    \
  /** PlainOnly verdicts recorded. */            \
  C(edns_broken_learned)
  struct Stats {
    EDE_COUNTER_SET(Stats, "resolver.infra", EDE_INFRA_COUNTERS)
  };

  explicit InfraCache(Options options) : options_(options) {}
  InfraCache() : InfraCache(Options{}) {}

  [[nodiscard]] const Options& options() const { return options_; }

  /// A reply (any rcode) arrived after `rtt_ms`: fold it into the EWMA
  /// and clear the failure streak.
  void report_success(const sim::NodeAddress& address, std::uint32_t rtt_ms);

  /// The address timed out or was unroutable at `now_ms`. Timeouts count
  /// toward the hold-down streak; both back the smoothed RTT off (the scan
  /// report's per-server view shows it).
  void report_failure(const sim::NodeAddress& address, FailureKind kind,
                      sim::SimTimeMs now_ms);

  /// The address mishandled an EDNS query (FORMERR/BADVERS/garbled OPT,
  /// or it exhausted the vendor's EDNS timeout quota) during batch
  /// `generation`: remember it as plain-DNS-only until `now_ms + ttl_ms`,
  /// after which the verdict expires and the next resolution re-probes
  /// with EDNS.
  void report_edns_broken(const sim::NodeAddress& address,
                          sim::SimTimeMs now_ms, std::uint32_t ttl_ms,
                          std::uint64_t generation);

  /// The address answered an EDNS query with a well-formed OPT during
  /// batch `generation`.
  void report_edns_ok(const sim::NodeAddress& address,
                      std::uint64_t generation);

  /// The capability a resolution of batch `generation` sees at `now_ms`.
  /// Only verdicts recorded by an earlier generation are visible — a
  /// sibling's verdict from the same batch reads as Unknown, so outcomes
  /// do not depend on the batch's inflight width. A PlainOnly verdict
  /// past its re-probe deadline also reads as Unknown (hold-down expiry
  /// triggers the re-probe).
  [[nodiscard]] EdnsCapability edns_capability(const sim::NodeAddress& address,
                                              sim::SimTimeMs now_ms,
                                              std::uint64_t generation) const;

  [[nodiscard]] const Entry* find(const sim::NodeAddress& address) const;
  [[nodiscard]] bool held_down(const sim::NodeAddress& address,
                               sim::SimTimeMs now_ms) const;

  void note_skip() { ++stats_.holddown_skips; }

  void clear();
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  using EntryMap =
      std::unordered_map<sim::NodeAddress, Entry, sim::NodeAddressHash>;

  /// Full per-address view, for diagnostics/reporting. Unordered — anything
  /// user-visible must go through ede::util::sorted_items (lint rule D1).
  [[nodiscard]] const EntryMap& entries() const { return entries_; }

 private:
  Entry& entry_for(const sim::NodeAddress& address);

  Options options_;
  EntryMap entries_;
  Stats stats_;
};

}  // namespace ede::resolver
