// Per-layer costs, measured from outside the libraries.
//
// The traced pass captures every datagram exchange through the network's
// public tap. Replays on a fresh stack built from the same seed then time
// each layer on its own:
//   zone     ScanWorld::build_child_zone once per touched child zone
//   server   the captured queries resent in order through Network::send
//   dnscore  dns::Message parse and serialize over the captured packets
//   dnssec   sign and verify every signed RRset the responses carried
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/bytes.hpp"
#include "simnet/network.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct Exchange {
  ede::sim::NodeAddress destination;
  bool retransmission = false;
  ede::sim::SendStatus status = ede::sim::SendStatus::Timeout;
  ede::crypto::Bytes query;
  ede::crypto::Bytes response;
};

/// Records every datagram exchange on a network (the stream transport is
/// not tapped). Must outlive the network it is attached to, and is
/// neither copied nor moved once attached (the tap holds its address).
class PacketCapture {
 public:
  PacketCapture() = default;
  PacketCapture(const PacketCapture&) = delete;
  PacketCapture& operator=(const PacketCapture&) = delete;

  void attach(ede::sim::Network& network);
  [[nodiscard]] const std::vector<Exchange>& exchanges() const {
    return exchanges_;
  }

 private:
  std::vector<Exchange> exchanges_;
};

struct LayerCosts {
  // simnet, from the capture
  std::uint64_t exchanges = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t bytes = 0;  // query + response bytes on the wire
  // zone
  std::uint64_t zones_built = 0;
  std::uint64_t rrsigs_made = 0;
  std::uint64_t rrsigs_used = 0;  // of those, seen in any response
  double zone_build_s = 0.0;
  // server: replay time, zone synthesis included
  double server_replay_s = 0.0;
  // dnscore
  double parse_query_s = 0.0;
  double parse_response_s = 0.0;
  double serialize_query_s = 0.0;
  double serialize_response_s = 0.0;
  // dnssec
  std::uint64_t rrsets_signed = 0;
  std::uint64_t rrsigs_verified = 0;
  double sign_s = 0.0;
  double verify_s = 0.0;
  // serve: generate_stub_trace over the scan population, one query per
  // domain (scan only; its pass makes no trace)
  double stub_trace_s = 0.0;
};

/// Run the four replays over `exchanges` on a fresh stack for (spec, seed);
/// for scan, also time the stub-trace generator on that stack.
[[nodiscard]] LayerCosts replay_layers(const WorkloadSpec& spec,
                                       std::uint64_t seed,
                                       const std::vector<Exchange>& exchanges,
                                       SpanLog* spans);

}  // namespace perfbench
