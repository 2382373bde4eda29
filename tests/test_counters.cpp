// Declare-once counters (src/obs/counters.hpp): a counter listed in a
// struct's X-macro is merged, diffed, walked under its dotted name and
// written to JSON with no other edit, embedded sets recurse under their own
// prefix, every pure counter set holds nothing but its declared counters,
// and sec42_wild_scan --json names every ScanResult counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "obs/counters.hpp"
#include "resolver/cache.hpp"
#include "resolver/infra_cache.hpp"
#include "resolver/resolver.hpp"
#include "scan/scanner.hpp"
#include "simnet/network.hpp"
#include "simnet/stream.hpp"

namespace {

using namespace ede;

#define TEST_BASE_COUNTERS(C, N)                        \
  C(alpha)                                              \
  /* A doc comment inside the list; a // comment here   \
     would swallow beta. */                             \
  C(beta)
struct Base {
  EDE_COUNTER_SET(Base, "test.base", TEST_BASE_COUNTERS)
};

// Base's list grown by one line, and nothing else.
#define TEST_GROWN_COUNTERS(C, N) TEST_BASE_COUNTERS(C, N) C(gamma)
struct Grown {
  EDE_COUNTER_SET(Grown, "test.grown", TEST_GROWN_COUNTERS)
};

#define TEST_OUTER_COUNTERS(C, N) \
  C(total)                        \
  N(Grown, inner)
struct Outer {
  EDE_COUNTERS(Outer, "test.outer", TEST_OUTER_COUNTERS)
  std::uint64_t high_water = 0;  // a gauge: not listed, so never summed
};

std::vector<std::string> names(const auto& set) {
  std::vector<std::string> out;
  obs::for_each(set, [&out](std::string_view name, std::uint64_t) {
    out.emplace_back(name);
  });
  return out;
}

std::vector<std::uint64_t> values(const auto& set) {
  std::vector<std::uint64_t> out;
  obs::for_each(set, [&out](std::string_view, std::uint64_t value) {
    out.push_back(value);
  });
  return out;
}

template <typename... Sets>
std::string json(std::string_view indent, const Sets&... sets) {
  std::ostringstream out;
  obs::write_json(out, indent, sets...);
  return out.str();
}

TEST(Counters, GrowingTheListIsTheOnlyEdit) {
  EXPECT_EQ(names(Base{}),
            (std::vector<std::string>{"test.base.alpha", "test.base.beta"}));
  EXPECT_EQ(names(Grown{}),
            (std::vector<std::string>{"test.grown.alpha", "test.grown.beta",
                                      "test.grown.gamma"}));

  Grown a{.alpha = 1, .beta = 2, .gamma = 3};
  const Grown b{.alpha = 10, .beta = 20, .gamma = 30};
  a.merge(b);
  EXPECT_EQ(values(a), (std::vector<std::uint64_t>{11, 22, 33}));
  EXPECT_EQ(values(a - b), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(json("  ", a),
            "{\n"
            "    \"test.grown.alpha\": 11,\n"
            "    \"test.grown.beta\": 22,\n"
            "    \"test.grown.gamma\": 33\n"
            "  }");
}

TEST(Counters, EmbeddedSetsRecurseUnderTheirOwnPrefix) {
  Outer a;
  a.total = 1;
  a.inner.gamma = 2;
  a.high_water = 7;
  Outer b;
  b.total = 10;
  b.inner.gamma = 20;
  b.high_water = 9;
  obs::add(a, b);
  EXPECT_EQ(a.total, 11u);
  EXPECT_EQ(a.inner.gamma, 22u);
  EXPECT_EQ(a.high_water, 7u);
  obs::subtract(a, b);
  EXPECT_EQ(a.total, 1u);
  EXPECT_EQ(a.inner.gamma, 2u);

  EXPECT_EQ(names(a), (std::vector<std::string>{
                          "test.outer.total", "test.grown.alpha",
                          "test.grown.beta", "test.grown.gamma"}));
  EXPECT_EQ(json("", a, Base{}),
            "{\n"
            "  \"test.outer.total\": 1,\n"
            "  \"test.grown.alpha\": 0,\n"
            "  \"test.grown.beta\": 0,\n"
            "  \"test.grown.gamma\": 2,\n"
            "  \"test.base.alpha\": 0,\n"
            "  \"test.base.beta\": 0\n"
            "}");
}

/// A pure counter set is exactly its listed counters: any member declared
/// outside the list would grow the struct past the walk's count.
template <typename Set>
void expect_only_listed_counters() {
  EXPECT_EQ(names(Set{}).size() * sizeof(std::uint64_t), sizeof(Set))
      << Set::counter_prefix;
}

TEST(Counters, PureSetsHoldOnlyListedCounters) {
  expect_only_listed_counters<Base>();
  expect_only_listed_counters<Grown>();
  expect_only_listed_counters<resolver::HardeningStats>();
  expect_only_listed_counters<resolver::Cache::Stats>();
  expect_only_listed_counters<resolver::InfraCache::Stats>();
  expect_only_listed_counters<sim::Network::Stats>();
  expect_only_listed_counters<sim::StreamStats>();
}

/// The keys of the "counters" object in a measurement document, in order.
std::vector<std::string> counter_keys(const std::string& document) {
  std::vector<std::string> keys;
  std::size_t at = document.find("\"counters\": {");
  if (at == std::string::npos) return keys;
  const std::size_t end = document.find('}', at);
  at = document.find('\n', at);
  while (at < end) {
    const std::size_t open = document.find('"', at);
    if (open >= end) break;
    const std::size_t close = document.find('"', open + 1);
    keys.push_back(document.substr(open + 1, close - open - 1));
    at = document.find('\n', close);
  }
  return keys;
}

TEST(Counters, Sec42JsonNamesEveryScanResultCounter) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ede_counters_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  // The bench writes sec42_codes.csv into its working directory.
  const std::string command = "cd '" + dir.string() + "' && '" +
                              EDE_SEC42_WILD_SCAN +
                              "' 1000 1 --shards 1 --json counters.json"
                              " >/dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
  std::ifstream in(dir / "counters.json");
  std::stringstream document;
  document << in.rdbuf();
  std::filesystem::remove_all(dir);

  const auto keys = counter_keys(document.str());
  EXPECT_EQ(keys, names(scan::ScanResult{}));
  // Spot-check one name from the scan itself and one per embedded set.
  for (const char* name :
       {"scan.total_domains", "sim.network.packets_sent",
        "resolver.infra.edns_broken_learned", "resolver.cache.lookups",
        "resolver.hardening.edns_capability_skips"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), name), keys.end()) << name;
  }
}

}  // namespace
