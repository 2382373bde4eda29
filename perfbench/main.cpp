// perfbench: end-to-end and per-layer benchmark of the scan and serve paths.
//
//   perfbench --workload scan|serve-hot|serve-churn --seed N --seconds S
//             --trace 0|1 [--out DIR] [--corrupt-outcome]
//
// --trace 0 repeats set-up + operation passes for S seconds and reports the
// end-to-end metrics (see run_untraced). --trace 1 repeats rounds of one
// plain pass and one traced pass (spans + packet capture) followed by the
// layer replays, and reports the per-layer metrics; the spans go to
// DIR/<workload>-seed<N>.spans.jsonl. Either way the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}, the
// deterministic counters are printed in their own section above it, and
// the full result (fingerprint, every pass) goes to DIR as JSON.
// --corrupt-outcome damages one outcome before the check (self-test only).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// A run repeats passes at least this often, whatever --seconds says, so
/// every figure has several samples.
constexpr std::size_t kMinPasses = 3;

/// Set-ups timed per pass of an untraced run: the pass's own and this many
/// less one made on their own, so setup_s has several times the samples.
constexpr std::size_t kSetupsPerPass = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  bool corrupt_outcome = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "scan|serve-hot|serve-churn --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--corrupt-outcome]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--out") {
      args.out_dir = value();
    } else if (flag == "--corrupt-outcome") {
      args.corrupt_outcome = true;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (find_workload(args.workload) == nullptr) usage("unknown --workload");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

struct Fingerprint {
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string cpu = cpu_model();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;

  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out << "{\"nproc\": " << nproc << ", \"cpu\": \"" << json_escape(cpu)
        << "\", \"compiler\": \"" << json_escape(compiler)
        << "\", \"build_type\": \"" << build_type << "\"}";
    return out.str();
  }
};

/// Same rule as bench/CMakeLists.txt, checked again at run time.
bool optimized_build() {
#ifdef __OPTIMIZE__
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" ||
         type == "MinSizeRel";
#else
  return false;
#endif
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buffer[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buffer;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string counters_json(const Counters& counters) {
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + counters[i].first +
           "\": " + std::to_string(counters[i].second);
  }
  return out + "}";
}

/// Everything a run learned, whichever mode it ran in.
struct RunOutcome {
  std::vector<Metric> metrics;  // the contract's metrics for this mode
  std::vector<Metric> report;   // further figures printed for readers
  Counters counters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<PassResult> passes;
};

void tally(RunOutcome& run, const PassResult& pass) {
  run.attempted += pass.ops;
  run.failed += pass.failed;
  for (const auto& failure : pass.failures)
    if (run.failures.size() < 5) run.failures.push_back(failure);
  if (run.counters.empty()) {
    run.counters = pass.counters;
  } else if (pass.counters != run.counters) {
    ++run.failed;
    run.failures.push_back(
        "counters differ between passes of one seed (nondeterminism)");
  }
}

/// Client latency (virtual time, deterministic) and the error rate.
void add_client_report(RunOutcome& run) {
  const auto& c = run.counters;
  run.report.push_back({"sim_p50_ms",
                        static_cast<double>(counter(c, "sim.p50_ms")),
                        "virtual_ms"});
  run.report.push_back({"sim_p99_ms",
                        static_cast<double>(counter(c, "sim.p99_ms")),
                        "virtual_ms"});
  run.report.push_back({"sim_samples",
                        static_cast<double>(counter(c, "sim.samples")),
                        "count"});
  run.report.push_back({"error_rate",
                        ratio(static_cast<double>(run.failed),
                              static_cast<double>(run.attempted)),
                        "ratio"});
}

/// Moves the (single) benchmark thread from CPU to CPU of the set it was
/// allowed at start, one CPU per pass, and restores that set when it goes
/// out of scope. On a shared host each virtual CPU has its own neighbours
/// and their load shifts over seconds; left alone the scheduler keeps the
/// thread on one of them for the whole run, so one busy neighbour could
/// slow a whole run. Rotating spreads every run over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Throughput is measured over the whole run: operations of every pass
/// over the summed wall time of their timed operations. The host's load
/// shifts over seconds, so a whole-run figure is steadier between runs than
/// any single pass. Set-up is short, so each pass also times it
/// kSetupsPerPass - 1 more times on its own, and setup_s is the median.
RunOutcome run_untraced(const WorkloadSpec& spec, const Args& args) {
  RunOutcome run;
  PassOptions options;
  options.corrupt_outcome = args.corrupt_outcome;
  CpuRotation rotation;
  std::vector<double> setup_s;
  double work_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t domains = 0;
  const auto start = SteadyClock::now();
  while (run.passes.size() < kMinPasses ||
         seconds_between(start, SteadyClock::now()) < args.seconds) {
    rotation.next();
    for (std::size_t i = 1; i < kSetupsPerPass; ++i)
      setup_s.push_back(time_setup(spec, args.seed));
    run.passes.push_back(run_pass(spec, args.seed, options));
    const PassResult& pass = run.passes.back();
    tally(run, pass);
    setup_s.push_back(pass.setup_s);
    work_s += pass.work_s;
    ops += pass.ops;
    domains += pass.domains;
  }
  run.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"domains_per_s", static_cast<double>(domains) / work_s, "domains/s"},
      {"qps", static_cast<double>(ops) / work_s, "queries/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  add_client_report(run);
  return run;
}

/// Per-layer figures of one traced round. Memory growth is read from
/// `first`, the run's first pass: later passes reuse freed heap.
std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                  const PassResult& first,
                                  const PassResult& plain,
                                  const PassResult& traced,
                                  const LayerCosts& costs,
                                  const SpanLog& spans) {
  const auto& c = traced.counters;
  const auto n = [&](const char* name) {
    return static_cast<double>(counter(c, name));
  };
  const double ops = static_cast<double>(traced.ops);
  const double served = n("serve.served");
  // Time inside the traced pass that no span around a public call covers.
  double unattributed = 0.0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const auto& name = spans.spans()[i].name;
    if (name == "pass" || name == "setup" || name == "work")
      unattributed += spans.self_seconds(i);
  }
  const double resolver_codec_s =
      costs.serialize_query_s + costs.parse_response_s;
  return {
      {"scan.population_s", traced.setup.population_s, "s"},
      {"scan.world_s", traced.setup.world_s + traced.setup.resolver_s, "s"},
      {"scan.prewarm_s", traced.setup.prewarm_s, "s"},
      {"mem.setup_mb", first.rss_setup_mb - first.rss_start_mb, "MB"},
      {"mem.run_growth_mb", first.rss_work_mb - first.rss_setup_mb, "MB"},
      {"serve.trace_s",
       spec.kind == Kind::Scan ? costs.stub_trace_s : traced.setup.trace_s,
       "s"},
      {"serve.waves", n("serve.waves"), "count"},
      {"serve.cache_answered_ratio", ratio(n("serve.cache_answered"), served),
       "ratio"},
      {"serve.coalesced_per_query", ratio(n("serve.coalesced"), served),
       "ratio"},
      {"serve.synthesized", n("serve.synthesized"), "count"},
      {"serve.prefetch_upstream_ratio",
       ratio(n("serve.prefetch_upstream"), n("resolver.upstream_queries")),
       "ratio"},
      {"serve.busy_virtual_ms", n("serve.busy_virtual_ms"), "virtual_ms"},
      {"zone.zones_built", static_cast<double>(costs.zones_built), "count"},
      {"zone.build_s", costs.zone_build_s, "s"},
      {"zone.rrsigs_made", static_cast<double>(costs.rrsigs_made), "count"},
      {"zone.rrsig_use_ratio",
       ratio(static_cast<double>(costs.rrsigs_used),
             static_cast<double>(costs.rrsigs_made)),
       "ratio"},
      {"dnssec.sign_s", costs.sign_s, "s"},
      {"dnssec.verify_s", costs.verify_s, "s"},
      {"server.answer_s", costs.server_replay_s - costs.zone_build_s, "s"},
      {"server.queries", static_cast<double>(costs.exchanges), "count"},
      {"simnet.packets_per_op", ratio(n("net.packets"), ops), "packets/op"},
      {"simnet.timeouts", n("net.timeouts"), "count"},
      {"simnet.retransmits", n("net.retransmits"), "count"},
      {"simnet.unreachable", n("net.unreachable"), "count"},
      {"dnscore.parse_s", costs.parse_query_s + costs.parse_response_s, "s"},
      {"dnscore.serialize_s",
       costs.serialize_query_s + costs.serialize_response_s, "s"},
      {"dnscore.bytes_per_op", ratio(static_cast<double>(costs.bytes), ops),
       "bytes/op"},
      {"resolver.run_s", plain.work_s, "s"},
      {"resolver.self_s",
       plain.work_s - costs.server_replay_s - resolver_codec_s, "s"},
      {"resolver.upstream_per_op", ratio(n("resolver.upstream_queries"), ops),
       "queries/op"},
      {"resolver.coalesced", n("resolver.coalesced"), "count"},
      {"resolver.servfail_cache_hits", n("resolver.servfail_cache_hits"),
       "count"},
      {"resolver.tcp_fallbacks", n("resolver.tcp_fallbacks"), "count"},
      {"cache.lookups", n("cache.lookups"), "count"},
      {"cache.lookups_per_op", ratio(n("cache.lookups"), ops), "lookups/op"},
      {"cache.hit_ratio", ratio(n("cache.hits"), n("cache.lookups")),
       "ratio"},
      {"cache.stale_hits", n("cache.stale_hits"), "count"},
      {"cache.evicted", n("cache.evicted"), "count"},
      {"infra.holddown_skips", n("infra.holddown_skips"), "count"},
      {"infra.failures", n("infra.failures"), "count"},
      {"sim_p50_ms", n("sim.p50_ms"), "virtual_ms"},
      {"sim_p99_ms", n("sim.p99_ms"), "virtual_ms"},
      {"sim_samples", n("sim.samples"), "count"},
      {"trace.unattributed_s", unattributed, "s"},
      {"trace.overhead_ratio", ratio(traced.work_s, plain.work_s) - 1.0,
       "ratio"},
  };
}

RunOutcome run_traced(const WorkloadSpec& spec, const Args& args,
                      SteadyClock::time_point epoch,
                      const std::string& spans_path) {
  RunOutcome run;
  std::vector<std::vector<Metric>> rounds;
  Counters replay_counters;
  std::string spans_text;
  const auto start = SteadyClock::now();
  while (rounds.empty() ||
         seconds_between(start, SteadyClock::now()) < args.seconds) {
    PassOptions plain_options;
    plain_options.corrupt_outcome = args.corrupt_outcome;
    const PassResult plain = run_pass(spec, args.seed, plain_options);

    SpanLog spans;
    PacketCapture capture;
    PassOptions traced_options = plain_options;
    traced_options.spans = &spans;
    traced_options.before_work = [&capture](Stack& stack) {
      capture.attach(*stack.network);
    };
    PassResult traced;
    spans.time("pass", 0,
               [&] { traced = run_pass(spec, args.seed, traced_options); });
    const LayerCosts costs =
        replay_layers(spec, args.seed, capture.exchanges(), &spans);

    const Counters replay = {
        {"capture.exchanges", costs.exchanges},
        {"capture.bytes", costs.bytes},
        {"zone.zones_built", costs.zones_built},
        {"zone.rrsigs_made", costs.rrsigs_made},
        {"zone.rrsigs_used", costs.rrsigs_used},
        {"dnssec.rrsets_signed", costs.rrsets_signed},
        {"dnssec.rrsigs_verified", costs.rrsigs_verified},
    };
    if (rounds.empty()) {
      replay_counters = replay;
    } else if (replay != replay_counters) {
      ++run.failed;
      run.failures.push_back("replay counts differ between rounds");
    }
    const PassResult& first = run.passes.empty() ? plain : run.passes.front();
    rounds.push_back(layer_metrics(spec, first, plain, traced, costs, spans));
    spans_text += spans.to_jsonl(epoch, static_cast<int>(rounds.size()));
    tally(run, plain);
    tally(run, traced);
    run.passes.push_back(plain);
    run.passes.push_back(std::move(traced));
  }

  run.counters.insert(run.counters.end(), replay_counters.begin(),
                      replay_counters.end());

  // Medians over rounds (the counts repeat exactly; times do not).
  for (std::size_t m = 0; m < rounds.front().size(); ++m) {
    std::vector<double> values;
    for (const auto& round : rounds) values.push_back(round[m].value);
    run.metrics.push_back(
        {rounds.front()[m].name, median(values), rounds.front()[m].unit});
  }
  add_client_report(run);

  std::ofstream out(spans_path);
  out << spans_text;
  if (!out) {
    ++run.failed;
    run.failures.push_back("cannot write " + spans_path);
  }
  return run;
}

void print_section(const char* title, const std::vector<Metric>& metrics) {
  std::printf("--- %s ---\n", title);
  for (const auto& metric : metrics)
    std::printf("%-30s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
}

std::string passes_json(const std::vector<PassResult>& passes) {
  std::ostringstream out;
  out.precision(17);
  out << "[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const auto& p = passes[i];
    out << (i == 0 ? "" : ", ") << "{\"setup_s\": " << p.setup_s
        << ", \"work_s\": " << p.work_s << ", \"ops\": " << p.ops
        << ", \"domains\": " << p.domains
        << ", \"population_s\": " << p.setup.population_s
        << ", \"world_s\": " << p.setup.world_s
        << ", \"resolver_s\": " << p.setup.resolver_s
        << ", \"prewarm_s\": " << p.setup.prewarm_s
        << ", \"trace_s\": " << p.setup.trace_s << "}";
  }
  return out.str() + "]";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto epoch = SteadyClock::now();
  const Args args = parse_args(argc, argv);
  const Fingerprint fingerprint;
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run from an unoptimized build (%s)\n",
                 fingerprint.build_type.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *find_workload(args.workload);
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  const std::string stem = args.out_dir + "/" + std::string(spec.name) +
                           "-seed" + std::to_string(args.seed);
  const std::string spans_path = stem + ".spans.jsonl";

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint.json().c_str());

  const RunOutcome run = args.trace
                             ? run_traced(spec, args, epoch, spans_path)
                             : run_untraced(spec, args);
  const bool correct = run.failed == 0;

  std::printf("passes: %zu\n", run.passes.size());
  print_section(args.trace ? "per-layer (traced run; median over rounds)"
                           : "end-to-end (untraced; whole run)",
                run.metrics);
  print_section("also reported (not in the result line)", run.report);
  std::printf("--- counters (deterministic) ---\n");
  for (const auto& [name, value] : run.counters)
    std::printf("%s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  std::printf("--- end counters ---\n");
  if (args.trace) std::printf("spans: %s\n", spans_path.c_str());
  if (!correct) {
    std::printf("FAILED: %llu of %llu operations failed their check\n",
                static_cast<unsigned long long>(run.failed),
                static_cast<unsigned long long>(run.attempted));
    for (const auto& failure : run.failures)
      std::printf("  %s\n", failure.c_str());
  }

  const std::string result_path =
      stem + (args.trace ? "-trace1.json" : "-trace0.json");
  std::ofstream result(result_path);
  result << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
         << ", \"fingerprint\": " << fingerprint.json()
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << run.attempted
         << ", \"failed\": " << run.failed
         << ", \"metrics\": " << metrics_json(run.metrics)
         << ", \"report\": " << metrics_json(run.report)
         << ", \"counters\": " << counters_json(run.counters)
         << ", \"passes\": " << passes_json(run.passes) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              metrics_json(run.metrics).c_str());
  return correct ? 0 : 1;
}
