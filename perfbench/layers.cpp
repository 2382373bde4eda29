#include "layers.hpp"

#include <map>
#include <string>
#include <unordered_set>
#include <variant>

#include "dnscore/arena.hpp"
#include "dnssec/sign.hpp"

namespace perfbench {
namespace {

using namespace ede;

/// Identity of one RRSIG: owner, covered type, key tag.
std::string rrsig_key(const dns::Name& owner, const dns::RrsigRdata& sig) {
  return owner.lowered().to_string() + '/' +
         std::to_string(static_cast<unsigned>(sig.type_covered)) + '/' +
         std::to_string(sig.key_tag);
}

/// Every address the world's Healthy provider pool answers on (the only
/// authorities that synthesize child zones).
std::unordered_set<sim::NodeAddress, sim::NodeAddressHash> healthy_providers(
    const scan::ScanWorld& world) {
  using Pool = scan::ServingPlan::Pool;
  std::unordered_set<sim::NodeAddress, sim::NodeAddressHash> addresses;
  const auto first = world.provider_address(Pool::Healthy, 0);
  for (std::uint32_t slot = 0; slot < (1U << 16); ++slot) {
    const auto address = world.provider_address(Pool::Healthy, slot);
    if (slot > 0 && address == first) break;  // the pool wrapped around
    addresses.insert(address);
  }
  return addresses;
}

/// Child zones the captured queries reached, in first-touch order.
std::vector<const scan::DomainSpec*> touched_domains(
    const scan::ScanWorld& world, const std::vector<Exchange>& exchanges) {
  const auto providers = healthy_providers(world);
  std::vector<const scan::DomainSpec*> touched;
  std::unordered_set<const scan::DomainSpec*> seen;
  dns::MessageArena arena;
  for (const auto& exchange : exchanges) {
    if (providers.count(exchange.destination) == 0) continue;
    if (!arena.parse(exchange.query) || arena.message().question.empty())
      continue;
    const auto* domain =
        domain_of(world, arena.message().question.front().qname);
    if (domain != nullptr && seen.insert(domain).second)
      touched.push_back(domain);
  }
  return touched;
}

void replay_zones(const scan::ScanWorld& world,
                  const std::vector<Exchange>& exchanges, LayerCosts& costs) {
  const auto touched = touched_domains(world, exchanges);
  std::unordered_set<std::string> made;
  std::unordered_set<std::string> apexes;
  for (const auto* domain : touched) {
    std::shared_ptr<zone::Zone> zone;
    costs.zone_build_s += timed(nullptr, "", 0, [&] {
      zone = world.build_child_zone(*domain);
    });
    apexes.insert(zone->origin().lowered().to_string());
    for (const auto& name : zone->names()) {
      for (const auto* rrset : zone->at(name)) {
        if (rrset->type != dns::RRType::RRSIG) continue;
        for (const auto& rdata : rrset->rdatas) {
          if (const auto* sig = std::get_if<dns::RrsigRdata>(&rdata)) {
            made.insert(rrsig_key(name, *sig));
            ++costs.rrsigs_made;
          }
        }
      }
    }
  }
  costs.zones_built = touched.size();

  // Which of those signatures any response actually carried.
  std::unordered_set<std::string> used;
  dns::MessageArena arena;
  for (const auto& exchange : exchanges) {
    if (exchange.response.empty() || !arena.parse(exchange.response)) continue;
    const auto& message = arena.message();
    for (const auto* section :
         {&message.answer, &message.authority, &message.additional}) {
      for (const auto& record : *section) {
        const auto* sig = std::get_if<dns::RrsigRdata>(&record.rdata);
        if (sig == nullptr ||
            apexes.count(sig->signer_name.lowered().to_string()) == 0)
          continue;
        auto key = rrsig_key(record.name, *sig);
        if (made.count(key) != 0) used.insert(std::move(key));
      }
    }
  }
  costs.rrsigs_used = used.size();
}

void replay_server(const Stack& stack, const std::vector<Exchange>& exchanges,
                   LayerCosts& costs) {
  const auto source = stack.resolver->profile().source;
  auto& network = *stack.network;
  costs.server_replay_s = timed(nullptr, "", 0, [&] {
    for (const auto& exchange : exchanges) {
      (void)network.send(source, exchange.destination, exchange.query,
                         exchange.retransmission);
    }
  });
}

/// Parse every captured packet of one direction in a timed loop, then time
/// re-serializing each parsed message on its own.
void replay_codec(const std::vector<Exchange>& exchanges, bool queries,
                  double& parse_s, double& serialize_s) {
  dns::MessageArena arena;
  const auto wire_of = [queries](const Exchange& exchange) -> const auto& {
    return queries ? exchange.query : exchange.response;
  };
  parse_s = timed(nullptr, "", 0, [&] {
    for (const auto& exchange : exchanges)
      if (!wire_of(exchange).empty()) (void)arena.parse(wire_of(exchange));
  });
  for (const auto& exchange : exchanges) {
    if (wire_of(exchange).empty() || !arena.parse(wire_of(exchange)))
      continue;
    serialize_s += timed(nullptr, "", 0,
                         [&] { (void)arena.serialize(arena.message()); });
  }
}

void replay_dnssec(const std::vector<Exchange>& exchanges, LayerCosts& costs) {
  // Zone keys are derived from the zone name; derive each signer's pair
  // once, outside the timers.
  std::map<std::pair<std::string, std::uint8_t>,
           std::vector<dnssec::SigningKey>>
      keys;
  const auto key_for = [&](const dns::RrsigRdata& sig)
      -> const dnssec::SigningKey* {
    auto [it, fresh] = keys.try_emplace(
        {sig.signer_name.lowered().to_string(), sig.algorithm});
    if (fresh) {
      it->second.push_back(dnssec::make_ksk(sig.signer_name, sig.algorithm));
      it->second.push_back(dnssec::make_zsk(sig.signer_name, sig.algorithm));
    }
    for (const auto& key : it->second)
      if (key.tag() == sig.key_tag) return &key;
    return nullptr;
  };

  std::unordered_set<std::string> signed_once;
  dns::MessageArena arena;
  for (const auto& exchange : exchanges) {
    if (exchange.response.empty() || !arena.parse(exchange.response)) continue;
    const auto& message = arena.message();
    for (const auto* section : {&message.answer, &message.authority}) {
      const auto rrsets = dns::group_rrsets(*section);
      for (const auto& sigs : rrsets) {
        if (sigs.type != dns::RRType::RRSIG) continue;
        for (const auto& rdata : sigs.rdatas) {
          const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
          if (sig == nullptr) continue;
          const dns::RRset* covered = nullptr;
          for (const auto& rrset : rrsets)
            if (rrset.type == sig->type_covered && rrset.name == sigs.name)
              covered = &rrset;
          const auto* key = covered != nullptr ? key_for(*sig) : nullptr;
          if (key == nullptr) continue;
          costs.verify_s += timed(nullptr, "", 0, [&] {
            (void)dnssec::verify_rrset(*covered, *sig, key->dnskey);
          });
          ++costs.rrsigs_verified;
          if (!signed_once.insert(rrsig_key(sigs.name, *sig)).second) continue;
          costs.sign_s += timed(nullptr, "", 0, [&] {
            (void)dnssec::sign_rrset(*covered, *key, sig->signer_name,
                                     {sig->inception, sig->expiration});
          });
          ++costs.rrsets_signed;
        }
      }
    }
  }
}

}  // namespace

void PacketCapture::attach(sim::Network& network) {
  // The tap sees bytes and status; the send log supplies the destination.
  // Re-arming record_sends after each exchange keeps the log at one entry,
  // so its cap never truncates a long run.
  network.record_sends(true);
  network.set_tap([this, &network](crypto::BytesView query,
                                   const sim::SendResult& result) {
    Exchange exchange;
    if (!network.send_log().empty()) {
      exchange.destination = network.send_log().back().destination;
      exchange.retransmission = network.send_log().back().retransmission;
    }
    network.record_sends(true);
    exchange.status = result.status;
    exchange.query.assign(query.begin(), query.end());
    exchange.response = result.response;
    exchanges_.push_back(std::move(exchange));
  });
}

LayerCosts replay_layers(const WorkloadSpec& spec, std::uint64_t seed,
                         const std::vector<Exchange>& exchanges,
                         SpanLog* spans) {
  LayerCosts costs;
  for (const auto& exchange : exchanges) {
    ++costs.exchanges;
    if (exchange.status == sim::SendStatus::Timeout) ++costs.timeouts;
    if (exchange.status == sim::SendStatus::Unreachable) ++costs.unreachable;
    if (exchange.retransmission) ++costs.retransmits;
    costs.bytes += exchange.query.size() + exchange.response.size();
  }
  timed(spans, "replay", 0, [&] {
    std::unique_ptr<Stack> stack;
    timed(spans, "replay.setup", 0,
          [&] { stack = build_stack(spec, seed, nullptr, nullptr); });
    timed(spans, "replay.zone", 0,
          [&] { replay_zones(*stack->world, exchanges, costs); });
    timed(spans, "replay.server", 0,
          [&] { replay_server(*stack, exchanges, costs); });
    timed(spans, "replay.dnscore", 0, [&] {
      replay_codec(exchanges, true, costs.parse_query_s,
                   costs.serialize_query_s);
      replay_codec(exchanges, false, costs.parse_response_s,
                   costs.serialize_response_s);
    });
    timed(spans, "replay.dnssec", 0,
          [&] { replay_dnssec(exchanges, costs); });
    if (spec.kind == Kind::Scan) {
      costs.stub_trace_s = timed(spans, "replay.serve_trace", 0, [&] {
        (void)serve::generate_stub_trace(stack->population,
                                         stub_options(spec, seed));
      });
    }
  });
  return costs;
}

}  // namespace perfbench
