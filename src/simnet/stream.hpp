// The in-memory stream (TCP-like) transport riding the same event clock
// as the datagram Network.
//
// DNS over a stream is two-byte length-prefixed messages (RFC 1035
// §4.2.2) on a connection with a lifecycle: a SYN handshake that costs a
// round trip, acceptance or refusal, per-segment loss absorbed by
// retransmission (extra RTTs, never lost data), mid-stream closes and
// idle timeouts. Each of those states is a distinct real-world failure
// the paper's EDE 22/23 categories fold together, so the simulation keeps
// them distinct and injectable: StreamBehavior mirrors the datagram
// ByzantineBehavior zoo with TCP-specific hostility (refuse-connection,
// accept-then-stall, close-after-N-bytes, garbage framing, and the
// TC-then-different-answer-over-TCP bait-and-switch), and the datagram
// ResponseMutator hook works unchanged on the unframed response bytes.
//
// The framing codec goes through dnscore's WireWriter/WireReader like
// every other byte-level encoder in the tree; FrameAssembler is shared by
// both ends (the server de-chunks queries with it, the resolver
// reassembles responses with it) so the same parser sees hostile framing
// from both directions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/bytes.hpp"
#include "crypto/rng.hpp"
#include "simnet/address.hpp"
#include "simnet/clock.hpp"
#include "simnet/network.hpp"

namespace ede::sim {

enum class StreamBehaviorKind : std::uint8_t {
  None = 0,
  Refuse,           // RST the handshake (connection refused)
  SynDrop,          // swallow the SYN (connect times out at the client)
  Stall,            // accept, then never send a response byte
  MidClose,         // close after the first N bytes of the response frame
  GarbageFrame,     // framing garbage: zero-length or over-declared prefix
  DifferentAnswer,  // serve a forged, unsigned answer over the stream
  SegmentLoss,      // per-segment loss; TCP retransmits (extra RTTs only)
};

constexpr std::size_t kStreamBehaviorKindCount = 8;  // incl. None

[[nodiscard]] const char* to_string(StreamBehaviorKind kind);

/// One scripted hostile stream behavior. Construct via the factories and
/// scope to a simulated-time window with between(), exactly like Fault and
/// ByzantineBehavior. `probability` is the chance the behavior fires per
/// connection attempt (Refuse/SynDrop) or per exchange (the rest).
struct StreamBehavior {
  StreamBehaviorKind kind = StreamBehaviorKind::None;
  double probability = 1.0;
  SimTime active_from = 0;
  SimTime active_until = kFaultForever;
  /// Kind-specific knob: MidClose = response bytes delivered before the
  /// close, SegmentLoss = percent chance each segment is lost in flight.
  std::uint32_t param = 0;

  static StreamBehavior refuse(double p = 1.0) {
    return {StreamBehaviorKind::Refuse, p};
  }
  static StreamBehavior syn_drop(double p = 1.0) {
    return {StreamBehaviorKind::SynDrop, p};
  }
  static StreamBehavior stall(double p = 1.0) {
    return {StreamBehaviorKind::Stall, p};
  }
  static StreamBehavior mid_close(double p = 1.0, std::uint32_t bytes = 3) {
    StreamBehavior b{StreamBehaviorKind::MidClose, p};
    b.param = bytes;
    return b;
  }
  static StreamBehavior garbage_frame(double p = 1.0) {
    return {StreamBehaviorKind::GarbageFrame, p};
  }
  static StreamBehavior different_answer(double p = 1.0) {
    return {StreamBehaviorKind::DifferentAnswer, p};
  }
  static StreamBehavior segment_loss(double p = 1.0,
                                     std::uint32_t percent = 30) {
    StreamBehavior b{StreamBehaviorKind::SegmentLoss, p};
    b.param = percent;
    return b;
  }

  /// The same behavior, active only inside [t0, t1) of simulated time.
  [[nodiscard]] StreamBehavior between(SimTime t0, SimTime t1) const {
    StreamBehavior b = *this;
    b.active_from = t0;
    b.active_until = t1;
    return b;
  }

  [[nodiscard]] bool active(SimTime now) const {
    return kind != StreamBehaviorKind::None && now >= active_from &&
           now < active_until;
  }
};

/// Transport-wide tallies, mirroring Network::Stats for the stream side.
#define EDE_STREAM_COUNTERS(C, N)                                 \
  C(connects_attempted)                                           \
  C(connects_established)                                         \
  C(connects_refused)                                             \
  /** SYN swallowed: times out at the client. */                  \
  C(connects_dropped)                                             \
  C(exchanges)                                                    \
  C(frames_delivered)                                             \
  C(segments_sent)                                                \
  /** Retransmitted, never actually lost. */                      \
  C(segments_lost)                                                \
  C(stalls)                                                       \
  C(mid_closes)                                                   \
  C(garbage_frames)                                               \
  C(forged_answers)                                               \
  C(idle_closes)                                                  \
  /** Responses tampered with by a ResponseMutator. */            \
  C(mutated)
struct StreamStats {
  EDE_COUNTER_SET(StreamStats, "sim.stream", EDE_STREAM_COUNTERS)
};

/// Wrap one DNS message in the RFC 1035 §4.2.2 two-byte length prefix.
/// Payloads over 65535 bytes cannot be framed and are clamped at the DNS
/// maximum (a message that large never serializes out of this tree).
[[nodiscard]] crypto::Bytes frame_message(crypto::BytesView payload);

/// Incremental de-framer for a stream of length-prefixed DNS messages.
/// Bytes arrive in arbitrary chunks (a length prefix may span segment
/// boundaries); feed() appends, pop() yields at most one complete frame.
class FrameAssembler {
 public:
  enum class Status : std::uint8_t {
    Frame,     // a complete frame was extracted
    NeedMore,  // not enough buffered bytes yet (prefix or payload short)
    BadFrame,  // a zero-length frame: nothing a DNS peer can ever mean
  };
  struct PopResult {
    Status status = Status::NeedMore;
    crypto::Bytes frame;
  };

  void feed(crypto::BytesView bytes);
  [[nodiscard]] PopResult pop();

  /// Bytes buffered but not yet consumed by pop().
  [[nodiscard]] std::size_t pending() const {
    return buffer_.size() - consumed_;
  }
  void reset();

 private:
  crypto::Bytes buffer_;
  std::size_t consumed_ = 0;
};

/// The stream transport. One instance lives inside each Network (see
/// Network::stream()) sharing its Clock; servers listen with the same
/// Endpoint signature they attach to the datagram side, and connections
/// are plain ids the caller opens, exchanges on, and closes.
class StreamTransport {
 public:
  StreamTransport(std::shared_ptr<Clock> clock, std::uint64_t seed);

  /// Accept connections at `address`, answering queries via `endpoint`.
  void listen(const NodeAddress& address, Endpoint endpoint);
  void ignore(const NodeAddress& address);
  [[nodiscard]] bool listening(const NodeAddress& address) const;

  /// Install a hostile-behavior schedule for connections to `address`
  /// (empty schedule clears). Evaluated like the Byzantine zoo: first
  /// behavior active at sim-time whose probability draw fires handles the
  /// connection attempt or exchange.
  void set_behaviors(const NodeAddress& address,
                     std::vector<StreamBehavior> behaviors);

  /// Datagram-compatible Byzantine hook: runs on the unframed response
  /// bytes before framing, so every mutator from simnet/byzantine.hpp
  /// works unchanged over the stream. Default-constructed clears.
  void set_mutator(const NodeAddress& address, ResponseMutator mutator);

  /// Reseed alongside Network::set_latency. The stream RNG is salted so
  /// datagram jitter/loss draws never perturb the stream schedule.
  void set_latency(const LatencyModel& model);

  enum class ConnectStatus : std::uint8_t {
    Established,
    Refused,      // RST: the peer actively refused
    Timeout,      // SYN swallowed (or nobody listening): client waits
    Unreachable,  // not globally routable, exactly like the datagram side
  };
  struct ConnectResult {
    ConnectStatus status = ConnectStatus::Timeout;
    std::uint64_t conn_id = 0;  // valid only when Established
    /// Handshake round-trip charged to the clock (latency model on).
    std::uint32_t rtt_ms = 0;
  };
  [[nodiscard]] ConnectResult connect(const NodeAddress& source,
                                      const NodeAddress& destination);

  enum class IoStatus : std::uint8_t {
    Ok,       // bytes delivered (a frame, or hostile framing garbage)
    Timeout,  // nothing arrived within the caller's read patience
    Closed,   // the peer closed; any bytes are what arrived before the FIN
  };
  struct IoResult {
    IoStatus status = IoStatus::Timeout;
    /// Raw stream bytes as received — length prefix included, possibly a
    /// partial or garbage frame. Run them through a FrameAssembler.
    crypto::Bytes bytes;
    std::uint32_t rtt_ms = 0;
  };
  /// Write one DNS query on the connection and read whatever the peer
  /// sends back. A Timeout result means nothing arrived — the caller
  /// decides how long it waited (via the owning Network's wait_ms
  /// discipline), exactly like a datagram drop.
  [[nodiscard]] IoResult exchange(std::uint64_t conn_id,
                                  crypto::BytesView query);

  void close(std::uint64_t conn_id);
  [[nodiscard]] bool open(std::uint64_t conn_id) const;

  [[nodiscard]] const StreamStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct Connection {
    NodeAddress source;
    NodeAddress peer;
    SimTimeMs last_active_ms = 0;
  };

  [[nodiscard]] std::uint32_t link_rtt();
  /// First behavior at `address` active now, drawn from `kinds`, whose
  /// probability fires. None when nothing fires.
  [[nodiscard]] StreamBehavior pick_behavior(
      const NodeAddress& address, std::initializer_list<StreamBehaviorKind>
                                      kinds);

  std::shared_ptr<Clock> clock_;
  std::unordered_map<NodeAddress, Endpoint, NodeAddressHash> listeners_;
  std::unordered_map<NodeAddress, std::vector<StreamBehavior>,
                     NodeAddressHash>
      behaviors_;
  std::unordered_map<NodeAddress, ResponseMutator, NodeAddressHash> mutators_;
  std::unordered_map<std::uint64_t, Connection> connections_;
  LatencyModel latency_;
  crypto::Xoshiro256 rng_;
  StreamStats stats_;
  std::uint64_t next_conn_id_ = 1;
};

}  // namespace ede::sim
