// Scenario driver over the plugin registry (docs/SCENARIOS.md):
//
//   ./tools/run_scenario --list
//   ./tools/run_scenario --scenario teleop --seed 3 [--set knob=value ...]
//
// --list prints every registered scenario with its one-line description.
// A run prints the effective spec (after --set overlays) followed by the
// outcome metrics, both in sorted key order — two runs with equal spec and
// seed print byte-identical output.
#include <charconv>
#include <cstdio>
#include <memory>
#include <string>
#include <system_error>

#include "scenario/runner.h"
#include "scenario/spec.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --list\n"
               "       %s --scenario NAME [--seed N] [--set KEY=VALUE ...]\n",
               argv0, argv0);
  return 2;
}

int list_scenarios() {
  for (const std::string& name : dde::scenario::scenario_names()) {
    const auto runner = dde::scenario::find_scenario(name);
    const auto& meta = runner->metadata();
    std::printf("%-10s [%s] %s\n", meta.name.c_str(), meta.category.c_str(),
                meta.description.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  dde::scenario::ScenarioSpec overlay;
  bool list = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      // The whole argument must be one decimal uint64: no sign, no
      // whitespace, no trailing text, no overflow.
      const std::string text = argv[++i];
      const char* end = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), end, seed);
      if (ec != std::errc{} || ptr != end) {
        std::fprintf(stderr,
                     "--seed expects a non-negative integer, got '%s'\n",
                     text.c_str());
        return 2;
      }
    } else if (arg == "--set" && i + 1 < argc) {
      const std::string kv = argv[++i];
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "--set expects KEY=VALUE, got '%s'\n",
                     kv.c_str());
        return 2;
      }
      overlay.set(kv.substr(0, eq), kv.substr(eq + 1));
    } else {
      return usage(argv[0]);
    }
  }

  if (list) return list_scenarios();
  if (name.empty()) return usage(argv[0]);

  auto runner = dde::scenario::find_scenario(name);
  if (runner == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s'; try --list\n", name.c_str());
    return 1;
  }
  runner->configure(overlay);

  std::printf("# scenario %s seed %llu\n", name.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("%s", runner->spec().dump().c_str());
  const auto outcome = runner->run(seed);
  std::printf("---\n");
  for (const auto& [key, value] : outcome.metrics) {
    std::printf("%s = %.6f\n", key.c_str(), value);
  }
  return 0;
}
