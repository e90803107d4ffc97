// Shared plumbing of the builtin scenario plugins (route, teleop, trigger):
// geometric topology construction, the structured-fault wiring and its
// spec keys, and the one ScenarioRunner implementation they all use.
// Internal to src/scenario.
//
// A plugin is a `Run` class — `Run::Config` (a config struct with `seed`
// and `horizon`), `Run::Result`, a constructor that builds the world and
// workload from a Config, `advance(SimTime until)`, and a read-only
// `collect()` after which the run may still advance — plus a binder
// `SpecBinder (*)(Config&)` and an outcome mapping
// `ScenarioOutcome (*)(const Result&)`. PluginRunner<Run> turns those into
// a ScenarioRunner; run_to_horizon<Run> is the typed whole-run entry point
// over the same Run path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "athena/config.h"
#include "athena/node.h"
#include "common/contracts.h"
#include "common/sim_time.h"
#include "fault/chaos.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "world/sensor_field.h"

namespace dde::scenario {

/// Connect the sensors' host nodes (node i hosts sensor i): geometric links
/// within `radius`, then join any remaining components by their closest
/// node pair so the network is always connected.
void build_links(net::Topology& topo, const world::SensorField& field,
                 double radius, double bandwidth_bps, SimTime latency);

/// Bind the "scheme" knob (athena::to_string / athena::parse_scheme).
void bind_scheme(SpecBinder& b, athena::Scheme* scheme);

/// Bind the scalar fault_*/chaos_* knobs plus the recovery knobs. The burst
/// channels and chaos.spare_node0 stay typed-only.
void bind_fault_knobs(SpecBinder& b, fault::FaultSpec* faults,
                      fault::ChaosSpec* chaos, bool* crash_recovery,
                      SimTime* recovery_lease);

/// Realize `faults` and `chaos` against `topo` into one plan, or nullopt
/// when both are empty (nothing is drawn and no injector should be built).
/// Each spec draws from its own RNG stream derived from `seed`, so enabling
/// faults or chaos never perturbs world/workload generation, and adding
/// churn to a faulted run leaves the FaultSpec schedule unchanged. Chaos
/// events append after the fault events; a non-empty chaos spec's restart
/// policy governs the merged plan, and its enabled burst replaces the
/// fault burst.
[[nodiscard]] std::optional<fault::FaultPlan> merged_fault_plan(
    const fault::FaultSpec& faults, const fault::ChaosSpec& chaos,
    const net::Topology& topo, std::uint64_t seed);

/// Mean of `xs` as a forward sum over size; 0 when empty.
[[nodiscard]] double mean_of(const std::vector<double>& xs);

/// Seed of the fault injector's own RNG stream for run seed `seed`.
[[nodiscard]] constexpr std::uint64_t injector_seed(
    std::uint64_t seed) noexcept {
  return seed * 104729 + 7;
}

/// Crash-faithful restarts: route the injector's node down/up transitions
/// into on_crash/on_restart under the plan's restart policy. Under the
/// default ghost policy the node hooks return immediately, so wiring them
/// keeps legacy fault runs bit-for-bit identical. `nodes` must outlive the
/// injector's run.
void wire_restart_hooks(
    fault::FaultInjector& injector,
    const std::vector<std::unique_ptr<athena::AthenaNode>>& nodes);

/// The one ScenarioRunner implementation behind every builtin plugin (see
/// the file comment for what `Run` provides).
template <class Run>
class PluginRunner final : public ScenarioRunner {
 public:
  using Config = typename Run::Config;
  using Result = typename Run::Result;
  using Binder = SpecBinder (*)(Config&);
  using Outcome = ScenarioOutcome (*)(const Result&);

  PluginRunner(ScenarioMetadata meta, Binder binder, Outcome to_outcome)
      : meta_(std::move(meta)), binder_(binder), outcome_(to_outcome) {}

  [[nodiscard]] const ScenarioMetadata& metadata() const override {
    return meta_;
  }

  [[nodiscard]] ScenarioSpec spec() const override {
    Config copy = cfg_;
    return binder_(copy).to_spec();
  }

  void configure(const ScenarioSpec& spec) override {
    DDE_CHECK(run_ == nullptr,
              "scenario: configure() between setup() and reset()");
    binder_(cfg_).apply(spec);
  }

  void setup(std::uint64_t seed) override {
    cfg_.seed = seed;
    run_ = std::make_unique<Run>(cfg_);
  }

  void tick(SimTime until) override {
    DDE_CHECK(run_ != nullptr, "scenario: tick() before setup()");
    run_->advance(until);
  }

  [[nodiscard]] SimTime horizon() const override { return cfg_.horizon; }

  [[nodiscard]] ScenarioOutcome outcome() override {
    DDE_CHECK(run_ != nullptr, "scenario: outcome() before setup()");
    return outcome_(run_->collect());
  }

  void reset() override { run_.reset(); }

 private:
  ScenarioMetadata meta_;
  Binder binder_;
  Outcome outcome_;
  Config cfg_;
  std::unique_ptr<Run> run_;
};

/// Build `cfg`'s run, advance it to the horizon, and collect — exactly what
/// PluginRunner::run() does.
template <class Run>
[[nodiscard]] typename Run::Result run_to_horizon(
    const typename Run::Config& cfg) {
  Run run(cfg);
  run.advance(cfg.horizon);
  return run.collect();
}

/// Factories of the builtin plugins; the registry registers each under its
/// metadata().name on first use.
[[nodiscard]] std::unique_ptr<ScenarioRunner> make_route_runner();
[[nodiscard]] std::unique_ptr<ScenarioRunner> make_teleop_runner();
[[nodiscard]] std::unique_ptr<ScenarioRunner> make_trigger_runner();

}  // namespace dde::scenario
