#include "runtime/config.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "runtime/metrics.hpp"
#include "switch/make_switch.hpp"
#include "util/assert.hpp"

namespace pcs::rt {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

double parse_double(const std::string& key, const std::string& v) {
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  PCS_REQUIRE(pos == v.size() && !v.empty(),
              "config key " << key << " expects a number, got '" << v << "'");
  return out;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  PCS_REQUIRE(false, "config key " << key << " expects a boolean, got '" << v << "'");
  return false;  // unreachable
}

void set_key(RuntimeConfig& cfg, const std::string& key, const std::string& value) {
  if (key == "family") {
    cfg.family = value;
  } else if (key == "n") {
    cfg.n = parse_size(key, value);
  } else if (key == "m") {
    cfg.m = parse_size(key, value);
  } else if (key == "beta") {
    cfg.beta = parse_double(key, value);
  } else if (key == "arrival") {
    cfg.arrival = value;
  } else if (key == "arrival_p") {
    cfg.arrival_p = parse_double(key, value);
  } else if (key == "pattern") {
    cfg.pattern = value;
  } else if (key == "injection") {
    cfg.injection = value;
  } else if (key == "hotspot_fraction") {
    cfg.hotspot_fraction = parse_double(key, value);
  } else if (key == "record") {
    cfg.record = value;
  } else if (key == "replay") {
    cfg.replay = value;
  } else if (key == "loads") {
    cfg.loads.clear();
    for (const std::string& item : split_csv(value)) {
      cfg.loads.push_back(parse_double(key, item));
    }
  } else if (key == "queue_depth") {
    cfg.queue_depth = parse_size(key, value);
  } else if (key == "policy") {
    cfg.policy = value;
  } else if (key == "seed") {
    cfg.seed = static_cast<std::uint64_t>(parse_size(key, value));
  } else if (key == "lanes") {
    cfg.lanes = parse_size(key, value);
  } else if (key == "warmup_epochs") {
    cfg.warmup_epochs = parse_size(key, value);
  } else if (key == "measure_epochs") {
    cfg.measure_epochs = parse_size(key, value);
  } else if (key == "drain_epochs_max") {
    cfg.drain_epochs_max = parse_size(key, value);
  } else if (key == "faults") {
    cfg.faults = parse_faults(value);
  } else if (key == "check_invariants") {
    cfg.check_invariants = parse_bool(key, value);
  } else if (key == "out") {
    cfg.out = value;
  } else if (key == "threads") {
    cfg.threads = parse_size(key, value);
  } else if (key == "trace") {
    cfg.trace = value;
  } else if (key == "trace_clock") {
    cfg.trace_clock = value;
  } else if (key == "topology") {
    cfg.topology = value;
  } else if (key == "hops") {
    cfg.fabric_hops = parse_size(key, value);
  } else if (key == "radix") {
    cfg.fabric_radix = parse_size(key, value);
  } else if (key == "alloc") {
    cfg.fabric_alloc = value;
  } else if (key == "credits") {
    cfg.fabric_credits = parse_size(key, value);
  } else if (key == "route") {
    cfg.fabric_route = value;
  } else if (key == "deflect_max") {
    cfg.fabric_deflect_max = parse_size(key, value);
  } else if (key == "epochs_in_flight") {
    cfg.fabric_epochs_in_flight = parse_size(key, value);
  } else if (key == "fault_hop") {
    cfg.fault_hop = parse_size(key, value);
  } else if (key == "socket") {
    cfg.serve_socket = value;
  } else if (key == "max_inflight") {
    cfg.serve_max_inflight = parse_size(key, value);
  } else if (key == "tenant_quota") {
    cfg.serve_tenant_quota = parse_size(key, value);
  } else if (key == "cache_mb") {
    cfg.serve_cache_mb = parse_size(key, value);
  } else {
    PCS_REQUIRE(false, "unknown config key '" << key << "'");
  }
}

}  // namespace

void validate(const RuntimeConfig& cfg) {
  PCS_REQUIRE(!split_csv(cfg.family).empty(), "family list is empty");
  for (const std::string& f : split_csv(cfg.family)) {
    PCS_REQUIRE(f == "revsort" || f == "columnsort" || f == "hyper",
                "unknown switch family '" << f << "'");
    PCS_REQUIRE(cfg.faults.empty() || f != "hyper",
                "faults require a plan-compiled family; 'hyper' has no plan");
  }
  PCS_REQUIRE(cfg.arrival == "bernoulli" || cfg.arrival == "exact" ||
                  cfg.arrival == "bursty" || cfg.arrival == "hotspot",
              "unknown arrival process '" << cfg.arrival << "'");
  PCS_REQUIRE(cfg.pattern.empty() || traffic::known_pattern(cfg.pattern),
              "unknown traffic pattern '" << cfg.pattern << "'");
  PCS_REQUIRE(cfg.injection.empty() || traffic::known_injection(cfg.injection),
              "unknown injection process '" << cfg.injection << "'");
  PCS_REQUIRE(cfg.hotspot_fraction > 0.0 && cfg.hotspot_fraction <= 1.0,
              "config key hotspot_fraction must be in (0,1], got "
                  << cfg.hotspot_fraction);
  PCS_REQUIRE(cfg.record.empty() || cfg.replay.empty(),
              "record and replay are mutually exclusive");
  policy_from_string(cfg.policy);  // throws on unknown
  PCS_REQUIRE(cfg.n >= 1 && cfg.m >= 1 && cfg.m <= cfg.n,
              "switch shape: n=" << cfg.n << " m=" << cfg.m);
  PCS_REQUIRE(cfg.arrival_p >= 0.0 && cfg.arrival_p <= 1.0,
              "arrival_p out of [0,1]: " << cfg.arrival_p);
  for (double load : cfg.loads) {
    PCS_REQUIRE(load >= 0.0 && load <= 1.0, "load out of [0,1]: " << load);
  }
  PCS_REQUIRE(cfg.queue_depth >= 1, "queue_depth must be >= 1");
  PCS_REQUIRE(cfg.lanes >= 1, "lanes must be >= 1");
  PCS_REQUIRE(cfg.measure_epochs >= 1, "measure_epochs must be >= 1");
  PCS_REQUIRE(cfg.trace_clock == "tsc" || cfg.trace_clock == "logical",
              "trace_clock must be 'tsc' or 'logical', got '" << cfg.trace_clock
                                                              << "'");
  PCS_REQUIRE(cfg.topology.empty() || cfg.topology == "single" ||
                  cfg.topology == "omega" || cfg.topology == "butterfly" ||
                  cfg.topology == "fattree",
              "topology must be single|omega|butterfly|fattree, got '"
                  << cfg.topology << "'");
  PCS_REQUIRE(cfg.fabric_alloc == "rr" || cfg.fabric_alloc == "islip",
              "alloc must be 'rr' or 'islip', got '" << cfg.fabric_alloc << "'");
  PCS_REQUIRE(cfg.fabric_route == "deterministic" ||
                  cfg.fabric_route == "adaptive",
              "route must be 'deterministic' or 'adaptive', got '"
                  << cfg.fabric_route << "'");
  PCS_REQUIRE(cfg.fabric_deflect_max == 0 || cfg.fabric_route == "adaptive",
              "deflect_max=" << cfg.fabric_deflect_max
                             << " needs route=adaptive");
  PCS_REQUIRE(cfg.fabric_epochs_in_flight <= 4096,
              "epochs_in_flight must be <= 4096, got "
                  << cfg.fabric_epochs_in_flight);
  PCS_REQUIRE(!cfg.serve_socket.empty(), "socket path must be non-empty");
  PCS_REQUIRE(cfg.serve_max_inflight >= 1, "max_inflight must be >= 1");
  PCS_REQUIRE(cfg.serve_tenant_quota >= 1, "tenant_quota must be >= 1");
  if (!cfg.topology.empty()) {
    PCS_REQUIRE(cfg.fabric_hops >= 1, "hops must be >= 1");
    PCS_REQUIRE(cfg.fabric_radix >= 1, "radix must be >= 1");
    PCS_REQUIRE(cfg.fabric_credits >= 1, "credits must be >= 1");
    for (const std::string& f : split_csv(cfg.family)) {
      PCS_REQUIRE(f != "hyper",
                  "fabric campaigns need a plan-compiled family; 'hyper' has "
                  "no plan");
    }
  }
}

std::size_t parse_size(const std::string& key, const std::string& v) {
  // std::stoull alone would skip leading blanks and accept a sign, wrapping
  // "-1" to 2^64 - 1: only a plain run of decimal digits is a size.
  std::size_t pos = 0;
  unsigned long long out = 0;
  if (!v.empty() && v[0] >= '0' && v[0] <= '9') {
    try {
      out = std::stoull(v, &pos);
    } catch (const std::exception&) {
      pos = 0;  // out of range
    }
  }
  PCS_REQUIRE(pos == v.size() && !v.empty(),
              "config key " << key << " expects a non-negative integer, got '"
                            << v << "'");
  return static_cast<std::size_t>(out);
}

std::vector<plan::ChipFault> parse_faults(const std::string& value) {
  std::vector<plan::ChipFault> out;
  for (const std::string& item : split_csv(value)) {
    const auto colon = item.find(':');
    PCS_REQUIRE(colon != std::string::npos,
                "config key faults expects stage:chip entries, got '" << item
                                                                      << "'");
    out.push_back(
        plan::ChipFault{parse_size("faults", trim(item.substr(0, colon))),
                        parse_size("faults", trim(item.substr(colon + 1)))});
  }
  return out;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

RuntimeConfig parse_config_text(const std::string& text) {
  RuntimeConfig cfg;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    PCS_REQUIRE(eq != std::string::npos,
                "config line " << lineno << " is not key=value: '" << line << "'");
    const std::string key = trim(line.substr(0, eq));
    // A key with embedded whitespace is always a typo ("queue depth = 4");
    // name the offending line instead of falling through to the generic
    // unknown-key error.  Duplicate keys are allowed and take the LAST
    // occurrence, matching CLI override semantics (set_key overwrites).
    PCS_REQUIRE(key.find_first_of(" \t") == std::string::npos,
                "config line " << lineno << ": key '" << key
                               << "' contains whitespace");
    set_key(cfg, key, trim(line.substr(eq + 1)));
  }
  validate(cfg);
  return cfg;
}

RuntimeConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  PCS_REQUIRE(in.good(), "cannot read config file '" << path << "'");
  std::ostringstream body;
  body << in.rdbuf();
  return parse_config_text(body.str());
}

void apply_overrides(RuntimeConfig& cfg, const std::vector<std::string>& assignments) {
  for (const std::string& assignment : assignments) {
    const auto eq = assignment.find('=');
    PCS_REQUIRE(eq != std::string::npos,
                "override is not key=value: '" << assignment << "'");
    const std::string key = trim(assignment.substr(0, eq));
    PCS_REQUIRE(key.find_first_of(" \t") == std::string::npos,
                "override key '" << key << "' contains whitespace (in '"
                                 << assignment << "')");
    set_key(cfg, key, trim(assignment.substr(eq + 1)));
  }
  validate(cfg);
}

std::string config_to_json(const RuntimeConfig& cfg, std::size_t indent) {
  const std::string pad(indent, ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"alloc\": " << json_escape(cfg.fabric_alloc) << ",\n";
  os << pad << "  \"arrival\": " << json_escape(cfg.arrival) << ",\n";
  os << pad << "  \"arrival_p\": " << format_json_double(cfg.arrival_p) << ",\n";
  os << pad << "  \"beta\": " << format_json_double(cfg.beta) << ",\n";
  os << pad << "  \"cache_mb\": " << cfg.serve_cache_mb << ",\n";
  os << pad << "  \"check_invariants\": " << (cfg.check_invariants ? "true" : "false")
     << ",\n";
  os << pad << "  \"credits\": " << cfg.fabric_credits << ",\n";
  os << pad << "  \"deflect_max\": " << cfg.fabric_deflect_max << ",\n";
  os << pad << "  \"drain_epochs_max\": " << cfg.drain_epochs_max << ",\n";
  os << pad << "  \"epochs_in_flight\": " << cfg.fabric_epochs_in_flight
     << ",\n";
  os << pad << "  \"family\": " << json_escape(cfg.family) << ",\n";
  os << pad << "  \"fault_hop\": " << cfg.fault_hop << ",\n";
  os << pad << "  \"faults\": [";
  for (std::size_t i = 0; i < cfg.faults.size(); ++i) {
    if (i) os << ", ";
    os << "[" << cfg.faults[i].stage << ", " << cfg.faults[i].chip << "]";
  }
  os << "],\n";
  os << pad << "  \"hops\": " << cfg.fabric_hops << ",\n";
  os << pad << "  \"hotspot_fraction\": " << format_json_double(cfg.hotspot_fraction)
     << ",\n";
  os << pad << "  \"injection\": " << json_escape(cfg.injection) << ",\n";
  os << pad << "  \"lanes\": " << cfg.lanes << ",\n";
  os << pad << "  \"loads\": [";
  for (std::size_t i = 0; i < cfg.loads.size(); ++i) {
    if (i) os << ", ";
    os << format_json_double(cfg.loads[i]);
  }
  os << "],\n";
  os << pad << "  \"m\": " << cfg.m << ",\n";
  os << pad << "  \"max_inflight\": " << cfg.serve_max_inflight << ",\n";
  os << pad << "  \"measure_epochs\": " << cfg.measure_epochs << ",\n";
  os << pad << "  \"n\": " << cfg.n << ",\n";
  os << pad << "  \"pattern\": " << json_escape(cfg.pattern) << ",\n";
  os << pad << "  \"policy\": " << json_escape(cfg.policy) << ",\n";
  os << pad << "  \"queue_depth\": " << cfg.queue_depth << ",\n";
  os << pad << "  \"radix\": " << cfg.fabric_radix << ",\n";
  os << pad << "  \"record\": " << json_escape(cfg.record) << ",\n";
  os << pad << "  \"replay\": " << json_escape(cfg.replay) << ",\n";
  os << pad << "  \"route\": " << json_escape(cfg.fabric_route) << ",\n";
  os << pad << "  \"seed\": " << cfg.seed << ",\n";
  os << pad << "  \"socket\": " << json_escape(cfg.serve_socket) << ",\n";
  os << pad << "  \"tenant_quota\": " << cfg.serve_tenant_quota << ",\n";
  os << pad << "  \"threads\": " << cfg.threads << ",\n";
  os << pad << "  \"topology\": " << json_escape(cfg.topology) << ",\n";
  os << pad << "  \"trace\": " << json_escape(cfg.trace) << ",\n";
  os << pad << "  \"trace_clock\": " << json_escape(cfg.trace_clock) << ",\n";
  os << pad << "  \"warmup_epochs\": " << cfg.warmup_epochs << "\n";
  os << pad << "}";
  return os.str();
}

CongestionPolicy policy_from_string(const std::string& s) {
  if (s == "drop") return CongestionPolicy::kDrop;
  if (s == "buffer-retry") return CongestionPolicy::kBufferRetry;
  if (s == "misroute-retry") return CongestionPolicy::kMisrouteRetry;
  PCS_REQUIRE(false, "unknown congestion policy '" << s << "'");
  return CongestionPolicy::kDrop;  // unreachable
}

RuntimeOptions runtime_options_from(const RuntimeConfig& cfg) {
  RuntimeOptions opts;
  opts.queue_depth = cfg.queue_depth;
  opts.policy = policy_from_string(cfg.policy);
  opts.lanes = cfg.lanes;
  opts.seed = cfg.seed;
  opts.warmup_epochs = cfg.warmup_epochs;
  opts.measure_epochs = cfg.measure_epochs;
  opts.drain_epochs_max = cfg.drain_epochs_max;
  opts.check_invariants = cfg.check_invariants;
  return opts;
}

std::unique_ptr<sw::ConcentratorSwitch> make_switch(const std::string& family,
                                                    const RuntimeConfig& cfg) {
  // Thin adapter onto the unified factory: the per-family dispatch (and the
  // fault rewrite behind PlanSwitch) lives in pcs::make_switch now.
  SwitchSpec spec;
  spec.family = family;
  spec.n = cfg.n;
  spec.m = cfg.m;
  spec.beta = cfg.beta;
  spec.faults = cfg.faults;
  return pcs::make_switch(spec);
}

traffic::TrafficSpec traffic_spec_from(const RuntimeConfig& cfg,
                                       std::size_t width) {
  traffic::TrafficSpec spec;
  spec.width = width;
  spec.intensity = cfg.arrival_p;
  spec.hotspot_fraction = cfg.hotspot_fraction;
  spec.search_seed = cfg.seed;
  // Legacy arrival derivation first (bit-identical to the old generators)...
  if (cfg.arrival == "bernoulli") {
    spec.pattern = "uniform";
    spec.injection = "bernoulli";
  } else if (cfg.arrival == "exact") {
    spec.pattern = "uniform";
    spec.injection = "exact";
  } else if (cfg.arrival == "bursty") {
    spec.pattern = "uniform";
    spec.injection = "onoff";
  } else if (cfg.arrival == "hotspot") {
    spec.pattern = "hotspot";
    spec.injection = "bernoulli";
  } else {
    PCS_REQUIRE(false, "unknown arrival process '" << cfg.arrival << "'");
  }
  // ...then explicit pattern=/injection= keys override either axis.
  if (!cfg.pattern.empty()) spec.pattern = cfg.pattern;
  if (!cfg.injection.empty()) spec.injection = cfg.injection;
  return spec;
}

std::unique_ptr<traffic::TrafficSource> make_traffic(
    const RuntimeConfig& cfg, std::size_t width,
    const sw::ConcentratorSwitch* search_switch) {
  traffic::TrafficSpec spec = traffic_spec_from(cfg, width);
  spec.search_switch = search_switch;
  return traffic::make_source(spec);
}

}  // namespace pcs::rt
