// citybench_driver: runs one city workload through the simulator's public
// entry points and prints raw per-execution records, one JSON object per
// line, for citybench/run.py to check and reduce.
//
//   citybench_driver --mode e2e|trace --seconds S --seeds 11,12,...
//                    [--set key=value]...
//
// Every execution is single-threaded and serial. The timed path is the
// "route" plugin (configure once, then setup/tick/outcome per seed); the
// reference path is scenario::run_route_scenario, which also returns the
// per-query outcomes and the per-node state probes.
//
// e2e:   each seed once through the plugin and once through the reference
//        path, then plugin replays of the same seeds, round-robin, until S
//        wall seconds have passed.
// trace: per seed, the plugin without and with the stack sampler, and the
//        reference path without and with a derive-only obs::TraceSink; then
//        sampled plugin replays until S seconds have passed. Only tick() is
//        sampled.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fault/chaos.h"
#include "obs/trace.h"
#include "sampler.h"
#include "scenario/route_scenario.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace {

using namespace dde;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "citybench_driver: %s\nusage: citybench_driver --mode "
               "e2e|trace --seconds S --seeds a,b,... [--set key=value]...\n",
               why);
  std::exit(2);
}

struct Args {
  std::string mode;
  double seconds = 0.0;
  std::vector<std::uint64_t> seeds;
  scenario::ScenarioSpec spec;
};

/// Sampling period: ~4-5k samples per second of tick().
constexpr long kSampleIntervalNs = 200'000;

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--seeds") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        std::size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        a.seeds.push_back(
            std::strtoull(value.substr(pos, comma - pos).c_str(), nullptr, 10));
        pos = comma + 1;
      }
    } else if (flag == "--set") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) usage("--set needs key=value");
      a.spec.set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      usage("unknown flag");
    }
  }
  if (a.mode != "e2e" && a.mode != "trace") usage("--mode must be e2e|trace");
  if (a.seeds.empty()) usage("no --seeds");
  return a;
}

bool wants_quiescence(const scenario::ScenarioSpec& spec) {
  return spec.contains("run_to_quiescence") &&
         spec.get_bool("run_to_quiescence");
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --- plugin path (timed) ----------------------------------------------------

struct PluginRun {
  double setup_s = 0.0;
  double tick_s = 0.0;
  double outcome_s = 0.0;
  scenario::ScenarioOutcome out;
};

PluginRun run_plugin(scenario::ScenarioRunner& runner, std::uint64_t seed,
                     bool quiesce, citybench::StackSampler* sampler) {
  PluginRun r;
  const auto t0 = Clock::now();
  runner.setup(seed);
  const auto t1 = Clock::now();
  if (sampler != nullptr) sampler->start();
  runner.tick(runner.horizon());
  // Quiesce point: drain every pending event after the horizon, as
  // run_route_scenario does for run_to_quiescence.
  if (quiesce) runner.tick(SimTime::max());
  if (sampler != nullptr) sampler->stop();
  const auto t2 = Clock::now();
  r.out = runner.outcome();
  const auto t3 = Clock::now();
  runner.reset();
  r.setup_s = seconds_between(t0, t1);
  r.tick_s = seconds_between(t1, t2);
  r.outcome_s = seconds_between(t2, t3);
  return r;
}

void print_plugin(const char* pass, std::uint64_t seed, const PluginRun& r) {
  fault::ReplayDigest d;
  for (const auto& [key, value] : r.out.metrics) d.fold(value);
  const auto& m = r.out.metrics;
  std::printf(
      "{\"rec\":\"plugin\",\"pass\":\"%s\",\"seed\":%" PRIu64
      ",\"setup_s\":%.9g,\"tick_s\":%.9g,\"outcome_s\":%.9g,\"digest\":\"%s\","
      "\"events\":%.17g,\"queries\":%.17g,\"resolved\":%.17g,"
      "\"failed\":%.17g,\"crashed\":%.17g,\"total_mb\":%.17g,"
      "\"accuracy\":%.17g,\"retries\":%.17g,\"refetches\":%.17g,"
      "\"failovers\":%.17g,\"node_restarts\":%.17g}\n",
      pass, seed, r.setup_s, r.tick_s, r.outcome_s, hex(d.value()).c_str(),
      m.at("events"), m.at("queries"), m.at("queries_resolved"),
      m.at("queries_failed"), m.at("crashed_queries"), m.at("total_megabytes"),
      m.at("decision_accuracy"), m.at("retries"), m.at("refetches"),
      m.at("failovers"), m.at("node_restarts"));
}

// --- reference path ---------------------------------------------------------

/// Order-sensitive digest of everything a run observably produced.
std::uint64_t result_digest(const scenario::ScenarioResult& r) {
  fault::ReplayDigest d;
  const auto& m = r.metrics;
  for (std::uint64_t v :
       {m.queries_issued, m.queries_resolved, m.queries_failed,
        m.queries_failed_crash, m.queries_shed, m.queries_rejected,
        m.total_bytes(), m.object_requests, m.retries, m.failovers,
        m.refetches, m.object_cache_hits, m.label_cache_hits,
        m.interest_aggregations, m.node_restarts, m.recovery_reissues,
        r.traffic.packets, r.traffic.bytes, r.traffic.dropped,
        r.faults.reroutes, r.events, r.queries, r.decisions_correct}) {
    d.fold(v);
  }
  d.fold(m.total_resolution_latency_s);
  for (const auto& out : r.outcomes) {
    d.fold(static_cast<std::uint64_t>(out.priority));
    d.fold(static_cast<std::uint64_t>((out.success ? 1 : 0) |
                                      (out.shed ? 2 : 0) |
                                      (out.crashed ? 4 : 0) |
                                      (out.correct ? 8 : 0)));
    d.fold(out.latency_s);
    d.fold(out.issued_s);
    d.fold(out.finished_s);
  }
  for (const auto& p : r.probes) {
    d.fold(p.node);
    d.fold(p.active_queries);
    d.fold(p.interest_entries);
    d.fold(p.forwarded_entries);
    d.fold(p.dedup_entries);
  }
  return d.value();
}

/// `sink` is the TraceSink the run had attached, or nullptr.
void print_reference(std::uint64_t seed, const obs::TraceSink* sink,
                     double wall_s, const scenario::ScenarioResult& r,
                     bool quiesce) {
  const auto& m = r.metrics;
  std::uint64_t in_flight = 0;
  for (const auto& p : r.probes) in_flight += p.active_queries;
  std::string violations = "null";
  if (quiesce) {
    violations = std::to_string(
        fault::check_quiesce_invariants(r.probes).violations.size());
  }
  std::printf(
      "{\"rec\":\"reference\",\"seed\":%" PRIu64
      ",\"sink\":%d,\"trace_events\":%" PRIu64
      ",\"wall_s\":%.9g,\"digest\":\"%s\",\"events\":%" PRIu64
      ",\"queries\":%" PRIu64 ",\"issued\":%" PRIu64 ",\"resolved\":%" PRIu64
      ",\"failed\":%" PRIu64 ",\"shed\":%" PRIu64 ",\"rejected\":%" PRIu64
      ",\"crashed\":%" PRIu64 ",\"in_flight\":%" PRIu64 ",\"total_mb\":%.17g"
      ",\"audited\":%" PRIu64 ",\"correct\":%" PRIu64 ",\"accuracy\":%.17g"
      ",\"packets\":%" PRIu64 ",\"dropped\":%" PRIu64
      ",\"queue_drops\":%" PRIu64
      ",\"object_requests\":%" PRIu64 ",\"retries\":%" PRIu64
      ",\"refetches\":%" PRIu64 ",\"failovers\":%" PRIu64
      ",\"object_cache_hits\":%" PRIu64 ",\"label_cache_hits\":%" PRIu64
      ",\"interest_aggregations\":%" PRIu64 ",\"reroutes\":%" PRIu64
      ",\"node_restarts\":%" PRIu64 ",\"recovery_reissues\":%" PRIu64
      ",\"violations\":%s,\"latencies\":[",
      seed, sink != nullptr ? 1 : 0, sink != nullptr ? sink->emitted() : 0,
      wall_s, hex(result_digest(r)).c_str(), r.events,
      r.queries, m.queries_issued, m.queries_resolved, m.queries_failed,
      m.queries_shed, m.queries_rejected, m.queries_failed_crash, in_flight,
      r.total_megabytes(), r.decisions_audited, r.decisions_correct,
      r.decision_accuracy(), r.traffic.packets, r.traffic.dropped,
      r.traffic.queue_drops, m.object_requests, m.retries, m.refetches,
      m.failovers, m.object_cache_hits, m.label_cache_hits,
      m.interest_aggregations, r.faults.reroutes, m.node_restarts,
      m.recovery_reissues, violations.c_str());
  bool first = true;
  for (const auto& out : r.outcomes) {
    if (!out.success) continue;
    std::printf(first ? "%.17g" : ",%.17g", out.latency_s);
    first = false;
  }
  std::printf("]}\n");
}

scenario::ScenarioResult run_reference(const scenario::ScenarioConfig& base,
                                       std::uint64_t seed,
                                       obs::TraceSink* sink, double* wall_s) {
  scenario::ScenarioConfig cfg = base;
  cfg.seed = seed;
  cfg.trace_sink = sink;
  const auto t0 = Clock::now();
  scenario::ScenarioResult r = scenario::run_route_scenario(cfg);
  *wall_s = seconds_between(t0, Clock::now());
  return r;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const bool quiesce = wants_quiescence(args.spec);
  std::unique_ptr<scenario::ScenarioRunner> runner =
      scenario::find_scenario("route");
  if (runner == nullptr) usage("no \"route\" scenario registered");
  runner->configure(args.spec);
  const scenario::ScenarioConfig ref_cfg =
      scenario::route_config_from_spec(args.spec);

  const auto start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };

  if (args.mode == "e2e") {
    for (std::uint64_t seed : args.seeds) {
      print_plugin("e2e", seed, run_plugin(*runner, seed, quiesce, nullptr));
      double wall = 0.0;
      const auto r = run_reference(ref_cfg, seed, nullptr, &wall);
      print_reference(seed, nullptr, wall, r, quiesce);
      std::fflush(stdout);
    }
    for (std::size_t i = 0; elapsed() < args.seconds; ++i) {
      const std::uint64_t seed = args.seeds[i % args.seeds.size()];
      print_plugin("e2e", seed, run_plugin(*runner, seed, quiesce, nullptr));
    }
    std::printf("{\"rec\":\"process\",\"peak_rss_mb\":%.9g}\n", peak_rss_mb());
    return 0;
  }

  // trace mode
  // Room for sampling the whole run plus the first round's overrun.
  const std::size_t capacity = static_cast<std::size_t>(
      (args.seconds + 10.0) * 1e9 / static_cast<double>(kSampleIntervalNs));
  citybench::StackSampler sampler(capacity, kSampleIntervalNs);
  obs::TraceSink::Options sink_opts;
  sink_opts.derive = true;  // derive-only: no ring, no JSONL
  // Each pair alternates which side runs first, so warm-up after the
  // previous execution does not favour one side.
  for (std::size_t i = 0; i < args.seeds.size(); ++i) {
    const std::uint64_t seed = args.seeds[i];
    for (int side = 0; side < 2; ++side) {
      if ((side + i) % 2 == 0) {
        print_plugin("base", seed, run_plugin(*runner, seed, quiesce, nullptr));
      } else {
        print_plugin("sampled", seed,
                     run_plugin(*runner, seed, quiesce, &sampler));
      }
    }
    for (int side = 0; side < 2; ++side) {
      obs::TraceSink sink(sink_opts);
      const bool traced = (side + i) % 2 == 1;
      double wall = 0.0;
      const auto r =
          run_reference(ref_cfg, seed, traced ? &sink : nullptr, &wall);
      print_reference(seed, traced ? &sink : nullptr, wall, r, quiesce);
    }
    std::fflush(stdout);
  }
  for (std::size_t i = 0; elapsed() < args.seconds; ++i) {
    const std::uint64_t seed = args.seeds[i % args.seeds.size()];
    print_plugin("sampled", seed, run_plugin(*runner, seed, quiesce, &sampler));
  }
  const auto stacks = sampler.stacks();
  std::printf("{\"rec\":\"sampler\",\"samples\":%zu,\"dropped\":%zu,"
              "\"unwind_failures\":%zu,\"interval_ns\":%ld,\"stacks\":%zu}\n",
              sampler.samples(), sampler.dropped(), sampler.unwind_failures(),
              kSampleIntervalNs, stacks.size());
  for (const auto& [frames, n] : stacks) {
    std::printf("{\"rec\":\"stack\",\"n\":%" PRIu64 ",\"f\":[", n);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      std::printf(i == 0 ? "%" PRIu32 : ",%" PRIu32, frames[i]);
    }
    std::printf("]}\n");
  }
  return 0;
}
