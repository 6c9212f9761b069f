// pcs_stress: bound-stress search against the paper's concentration
// guarantees.
//
// For each family, builds the configured switch, runs the seeded
// hill-climbing search (src/traffic/search.hpp) at a sweep of k values
// around the guaranteed capacity m - eps, and prints the measured
// worst-case concentration next to the paper bound.  The search floor is
// re-checked per evaluation (routed >= min(k, capacity)); what this tool
// reports is the *slack* -- how much worse than the best case, and how much
// better than the guaranteed floor, the worst discovered pattern performs.
//
//   $ ./pcs_stress family=revsort,columnsort n=256 m=192
//   $ ./pcs_stress family=revsort n=256 m=192 k=200 restarts=16 steps=500
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/config.hpp"
#include "traffic/search.hpp"
#include "util/assert.hpp"

namespace {

struct Options {
  pcs::rt::RuntimeConfig cfg;
  std::size_t k = 0;  ///< 0 = sweep {capacity+1, capacity+eps/2, m}
  std::size_t restarts = 8;
  std::size_t steps = 200;
  std::size_t chip_w = 8;
};

[[noreturn]] void usage_and_exit(int rc) {
  std::printf(
      "usage: pcs_stress [key=value ...]\n"
      "  family=LIST n=N m=M beta=B seed=S   (switch shape, as pcs_serve)\n"
      "  k=K            valid bits per pattern (0 = sweep around capacity)\n"
      "  restarts=N steps=N chip_w=N         (search shape)\n");
  std::exit(rc);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    std::vector<std::string> overrides;
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--help" || arg == "-h") usage_and_exit(0);
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) usage_and_exit(2);
      const std::string key = arg.substr(0, eq);
      const std::string val = arg.substr(eq + 1);
      if (key == "k") {
        o.k = std::stoul(val);
      } else if (key == "restarts") {
        o.restarts = std::stoul(val);
      } else if (key == "steps") {
        o.steps = std::stoul(val);
      } else if (key == "chip_w") {
        o.chip_w = std::stoul(val);
      } else {
        overrides.push_back(arg);
      }
    }
    pcs::rt::apply_overrides(o.cfg, overrides);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcs_stress: %s\n", e.what());
    return 2;
  }

  std::printf("%-12s %6s %6s %6s %8s %8s %12s %12s %8s\n", "family", "n", "m",
              "k", "routed", "floor", "measured", "bound", "evals");
  try {
    for (const std::string& family : pcs::rt::split_csv(o.cfg.family)) {
      auto sw = pcs::make_switch(pcs::rt::switch_spec_from(o.cfg, family));
      const std::size_t cap = sw->guaranteed_capacity();
      const std::size_t eps = sw->epsilon_bound();
      std::vector<std::size_t> ks;
      if (o.k != 0) {
        ks.push_back(o.k);
      } else {
        // The interesting regime: just past the guarantee, mid-overload,
        // and fully loaded.
        ks.push_back(std::min(cap + 1, sw->inputs()));
        ks.push_back(std::min(cap + (eps + 1) / 2 + 1, sw->inputs()));
        ks.push_back(std::min(sw->outputs(), sw->inputs()));
      }
      for (std::size_t k : ks) {
        pcs::traffic::SearchOptions sopts;
        sopts.k = k;
        sopts.restarts = o.restarts;
        sopts.steps = o.steps;
        sopts.seed = o.cfg.seed;
        sopts.chip_w = o.chip_w;
        const pcs::traffic::SearchResult r =
            pcs::traffic::worst_concentration_search(*sw, sopts);
        std::printf("%-12s %6zu %6zu %6zu %8zu %8zu %12.4f %12.4f %8zu\n",
                    family.c_str(), sw->inputs(), sw->outputs(), r.k, r.routed,
                    std::min(r.k, cap), r.concentration, r.bound,
                    r.evaluations);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcs_stress: %s\n", e.what());
    return 1;
  }
  return 0;
}
